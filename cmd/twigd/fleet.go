package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
)

// runFleet is twigd's -nodes mode: a fleet of simulated nodes, each
// running its own Twig control loop, under the cluster coordinator that
// owns placement, heartbeat leases, failover and QoS-class degradation.
// The -services set is admitted as latency-critical replicas (earlier
// names at higher priority). With -checkpoint-dir the whole fleet —
// every node's world and manager plus the coordinator's placement state
// — checkpoints crash-consistently and resumes bit-identically.
func runFleet(cfg runConfig) error {
	factory, flush := experiments.PooledFleetFactory(cfg.scale)
	ccfg := cluster.Config{
		Nodes:           cfg.nodes,
		NodeCapacity:    cfg.nodeCap,
		Seed:            cfg.seed,
		Scenario:        cfg.nodeFaults,
		MaxRetries:      4,
		Factory:         factory,
		Flush:           flush,
		CheckpointEvery: cfg.ckptEvery,
	}

	// A scenario preset replaces the homogeneous fleet: one node per
	// world with the class's platform, and each class mix admitted as
	// replicas at the mix load (placement stays the coordinator's; the
	// generated traces apply only in single-node mode).
	var admits []cluster.ReplicaSpec
	if cfg.scenario != "" {
		worlds, err := scenarioWorlds(cfg)
		if err != nil {
			return err
		}
		if cfg.nodes != len(worlds) {
			fmt.Printf("twigd: scenario %q fixes the fleet at %d nodes (-nodes %d ignored)\n",
				cfg.scenario, len(worlds), cfg.nodes)
			cfg.nodes = len(worlds)
			ccfg.Nodes = len(worlds)
		}
		ccfg.NodeSims = make([]sim.Config, len(worlds))
		for i, w := range worlds {
			ccfg.NodeSims[i] = w.SimConfig(cfg.seed)
			for _, m := range w.Class.Mix {
				admits = append(admits, cluster.ReplicaSpec{
					Service:  m.Service,
					LoadFrac: m.LoadFrac,
					Class:    cluster.LC,
					Priority: len(admits),
				})
			}
		}
	} else {
		for i, name := range cfg.names {
			admits = append(admits, cluster.ReplicaSpec{
				Service:  name,
				LoadFrac: cfg.loads[i],
				Class:    cluster.LC,
				Priority: len(cfg.names) - 1 - i,
			})
		}
	}
	// Every replica's QoS target and Eq. 2 model (its node's Twig manager
	// needs one) are calibrated in one fan-out, not one admission at a time.
	names := make([]string, len(admits))
	for i, a := range admits {
		names[i] = a.Service
	}
	experiments.Calibrate(names, names)
	for i := range admits {
		admits[i].QoSTargetMs = experiments.QoSTarget(admits[i].Service)
	}
	var store *checkpoint.Store
	if cfg.ckptDir != "" {
		var err error
		store, err = checkpoint.NewStore(cfg.ckptDir, cfg.ckptKeep)
		if err != nil {
			return fmt.Errorf("opening checkpoint dir: %w", err)
		}
		store.SetRejectHook(func(path string, err error) {
			fmt.Fprintf(os.Stderr, "twigd: skipping corrupt checkpoint %s: %v\n", path, err)
		})
		ccfg.Store = store
	}

	var coord *cluster.Coordinator
	if store != nil {
		c, seq, err := cluster.RestoreFleet(ccfg)
		switch {
		case err == nil:
			coord = c
			fmt.Printf("twigd: fleet resumed from %s at t=%d\n", store.Path(seq), c.Clock())
		case errors.Is(err, os.ErrNotExist):
			// No checkpoints yet: a fresh fleet.
		default:
			return fmt.Errorf("no fleet checkpoint in %s is restorable: %v", cfg.ckptDir, err)
		}
	}
	if coord == nil {
		c, err := cluster.New(ccfg)
		if err != nil {
			return err
		}
		for _, spec := range admits {
			if _, err := c.Admit(spec); err != nil {
				return err
			}
		}
		coord = c
	}

	if cfg.httpAddr != "" {
		serve(cfg.httpAddr, fleetMux(coord))
		fmt.Printf("twigd: serving fleet /status and /metrics on %s\n", cfg.httpAddr)
	}

	fmt.Printf("twigd: fleet of %d nodes (capacity %d), %d replicas, node scenario %q\n",
		cfg.nodes, cfg.nodeCap, len(admits), cfg.nodeFaults.Name)
	for coord.Clock() < cfg.seconds {
		coord.Step()
		if coord.Clock()%cfg.logEvery == 0 {
			fmt.Print(coord.Summary().StatusText())
		}
	}

	if store != nil {
		if err := coord.CheckpointNow(); err != nil {
			fmt.Fprintf(os.Stderr, "twigd: writing final fleet checkpoint: %v\n", err)
		} else {
			fmt.Printf("  checkpointed t=%d to %s\n", coord.Clock(), cfg.ckptDir)
		}
	}
	fmt.Println("\nfleet summary:")
	fmt.Print(coord.Summary().StatusText())
	return nil
}

// fleetMux routes the fleet's observability endpoints (read-only: fleet
// membership is fixed by the -services flag for determinism).
func fleetMux(coord *cluster.Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(coord.Summary())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(coord.Metrics().Render()))
	})
	return mux
}
