// Command twigd runs the Twig task manager against the simulated server
// as a long-running control-plane daemon. Beyond watching the log, the
// -http endpoint exposes the full admission API: services can be
// admitted, drained and deleted at runtime, /metrics exports
// Prometheus-style telemetry, /status serves a JSON snapshot, and
// /reload hot-swaps the manager weights from the newest checkpoint
// without dropping the control loop.
//
// Usage:
//
//	twigd -services masstree,moses -loads 0.3,0.3 -seconds 2000
//	twigd -services img-dnn -pattern diurnal -seconds 4000
//	twigd -services masstree -trace load.csv -csv run.csv -http :8080
//	twigd -services masstree,moses -faults hostile -guard
//	twigd -services masstree -faults crash -checkpoint-dir /var/lib/twigd
//	twigd -nodes 3 -services masstree,xapian -node-faults chaos -seconds 600
//	twigd -scenario cloud-edge -seconds 3600
//
// With -scenario <preset> (cloud-edge, agentic-burst or diurnal) the
// daemon manages the preset's first world: its node class fixes the
// simulated platform (SKU, DVFS range, inter-tier latency tax) and the
// class's service mix is admitted under the scenario's deterministic
// generated traces, replacing -services/-loads/-pattern. Combined with
// -nodes > 1 the whole preset becomes the fleet: one node per world,
// heterogeneous per-node platforms, the mixes admitted as replicas
// (placement stays the coordinator's; fleet load is the mix fraction,
// not the generated traces). A resumed run must be started with the
// same -scenario, like -trace.
//
// With -nodes N (N > 1) twigd runs a fleet: N simulated nodes, each
// under its own Twig control loop, coordinated by the cluster control
// plane — heartbeat leases, whole-node crash/partition detection
// (-node-faults), warm failover from snapshots, and QoS-class
// degradation when capacity drops. /status and /metrics then report the
// fleet; the admission API is disabled (membership is fixed for
// determinism). The single-node flags a fleet does not read (-faults,
// -guard, -trace, -pattern, -csv, -save, -load) are refused beside it.
//
// With -checkpoint-dir, the daemon writes a crash-consistent checkpoint
// of the full control plane (simulated world, manager, guard, drainer,
// service registry, control-loop position) every -checkpoint-every
// simulated seconds, keeps the last -checkpoint-keep files, and on
// start restores the newest valid one — skipping torn or corrupt files
// — so a killed daemon resumes bit-identically where it left off.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/daemon"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/report"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

func main() { os.Exit(twigd(os.Args[1:], os.Stderr)) }

// twigd runs the command line args (without the program name) and
// returns the exit status: 0, or 2 after printing the error on stderr
// as one line under one "twigd: " prefix.
func twigd(args []string, stderr io.Writer) int {
	cfg, err := parseConfig(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err == nil && cfg.nodes > 1:
		err = runFleet(cfg)
	case err == nil:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "twigd: %v\n", err)
		return 2
	}
	return 0
}

func run(cfg runConfig) error {
	dcfg := daemon.Config{
		Scale:           cfg.scale,
		Seed:            cfg.seed,
		Guard:           cfg.guard,
		CheckpointEvery: cfg.ckptEvery,
	}
	if !cfg.faults.IsZero() {
		dcfg.Faults = &cfg.faults
	}
	if cfg.scenario != "" {
		w, err := scenarioWorlds(cfg)
		if err != nil {
			return err
		}
		first := w[0]
		sc := first.SimConfig(cfg.seed)
		dcfg.Sim = &sc
		dcfg.PatternOverrides = make(map[string]loadgen.Pattern, len(first.Services))
		cfg.names = first.Services
		cfg.loads = make([]float64, len(first.Services))
		for i, name := range first.Services {
			dcfg.PatternOverrides[name] = first.Traces[i]
			cfg.loads[i] = first.Class.Mix[i].LoadFrac // Services follows the mix
		}
		fmt.Printf("twigd: scenario %q world %s: %v on the %q node class\n",
			cfg.scenario, first.Name, first.Services, first.Class.Name)
	}
	if cfg.trace != "" {
		f, err := os.Open(cfg.trace)
		if err != nil {
			return fmt.Errorf("opening trace: %w", err)
		}
		tr, err := loadgen.ReadTrace(f, true)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing trace: %w", err)
		}
		dcfg.PatternOverrides = map[string]loadgen.Pattern{cfg.names[0]: tr}
	}

	var store *checkpoint.Store
	if cfg.ckptDir != "" {
		var err error
		store, err = checkpoint.NewStore(cfg.ckptDir, cfg.ckptKeep)
		if err != nil {
			return fmt.Errorf("opening checkpoint dir: %w", err)
		}
		dcfg.Store = store
	}

	initial := make([]daemon.AdmitRequest, len(cfg.names))
	for i, name := range cfg.names {
		initial[i] = daemon.AdmitRequest{Name: name, Load: cfg.loads[i], Pattern: cfg.pattern}
	}

	// With a checkpoint dir, prefer resuming the newest valid checkpoint
	// over starting fresh; an empty dir is a fresh run, but a dir whose
	// checkpoints all fail to restore is surfaced rather than silently
	// discarding training the operator expects to keep.
	var eng *daemon.Engine
	resumed := false
	if store != nil {
		e, seq, err := daemon.RestoreLatest(dcfg)
		switch {
		case err == nil:
			eng = e
			resumed = true
			fmt.Printf("twigd: resumed from %s at t=%d\n", store.Path(seq), e.Next())
		case errors.Is(err, os.ErrNotExist):
			// No checkpoints yet: a fresh run.
		default:
			return fmt.Errorf("no checkpoint in %s is restorable: %v", cfg.ckptDir, err)
		}
	}
	if eng == nil {
		e, err := daemon.New(dcfg, initial)
		if err != nil {
			return err
		}
		eng = e
	}
	if !cfg.faults.IsZero() {
		fmt.Printf("twigd: fault scenario %q armed\n", cfg.faults.Name)
	}

	if cfg.load != "" {
		if resumed {
			fmt.Printf("twigd: -load ignored, run resumed from %s\n", cfg.ckptDir)
		} else if err := loadInto(eng.Manager(), cfg.load); err != nil {
			return err
		}
	}

	if cfg.httpAddr != "" {
		serve(cfg.httpAddr, daemon.NewMux(eng))
		fmt.Printf("twigd: serving admission API, /status and /metrics on %s\n", cfg.httpAddr)
	}

	// Per-interval CSV columns follow the services present at each
	// interval's step; the header is built from the initial membership
	// (runtime admissions append columns without renaming existing ones).
	csvTable := report.NewTable(csvHeader(cfg.names)...)

	sumFrom := max(cfg.seconds-cfg.scale.SummaryS, cfg.seconds/2)
	var acc summaryAcc
	var coresTrace []float64
	fmt.Printf("twigd: managing %v on %d cores (%s scale, ε %0.2f→%0.2f)\n",
		cfg.names, eng.NumCores(), cfg.scale.Name, cfg.scale.Epsilon.Start, cfg.scale.Epsilon.End)

	err := eng.RunTo(cfg.seconds, func(t int, r sim.StepResult) {
		if len(r.Services) > 0 {
			coresTrace = append(coresTrace, float64(r.Services[0].NumCores))
		}
		if cfg.csv != "" {
			csvTable.AddRow(csvRow(t, r)...)
		}
		if t >= sumFrom {
			acc.add(r)
		}
		if (t+1)%cfg.logEvery != 0 {
			return
		}
		fmt.Printf("t=%5ds power=%5.1fW", t+1, r.TruePowerW)
		for _, sv := range r.Services {
			fmt.Printf("  %2dc@%.1fGHz p99=%6.2fms (target %.2f)",
				sv.NumCores, sv.FreqGHz, sv.P99Ms, sv.QoSTargetMs)
		}
		fmt.Println()
	})
	if err != nil {
		return err
	}

	if store != nil {
		// Final checkpoint regardless of cadence, and wait for the disk.
		if err := eng.CheckpointNow(); err != nil {
			fmt.Fprintf(os.Stderr, "twigd: writing final checkpoint: %v\n", err)
		} else {
			fmt.Printf("  checkpointed t=%d to %s\n", eng.Next(), cfg.ckptDir)
		}
	}

	acc.print()
	if n := len(coresTrace); n > 120 {
		step := n / 60
		var ds []float64
		for i := 0; i < n; i += step {
			ds = append(ds, coresTrace[i])
		}
		fmt.Printf("  %s cores over time: %s\n", cfg.names[0], report.Sparkline(ds))
	}

	if cfg.save != "" {
		f, err := os.Create(cfg.save)
		if err != nil {
			return fmt.Errorf("creating checkpoint file: %w", err)
		}
		if err := eng.Manager().SaveCheckpoint(f); err != nil {
			return fmt.Errorf("saving checkpoint: %w", err)
		}
		f.Close()
		fmt.Printf("  saved manager checkpoint to %s\n", cfg.save)
	}

	if cfg.csv != "" {
		f, err := os.Create(cfg.csv)
		if err != nil {
			return fmt.Errorf("creating csv: %w", err)
		}
		if err := csvTable.WriteCSV(f); err != nil {
			return fmt.Errorf("writing csv: %w", err)
		}
		f.Close()
		fmt.Printf("  wrote %d intervals to %s\n", csvTable.Len(), cfg.csv)
	}
	return nil
}

// summaryAcc accumulates the final-window summary the daemon prints at
// exit: QoS guarantee, tardiness, allocation and energy per service
// index (runtime membership changes truncate to the smallest set seen).
type summaryAcc struct {
	samples int
	energyJ float64
	powerW  float64
	met     []float64
	tard    []float64
	cores   []float64
	freq    []float64
}

func (a *summaryAcc) add(r sim.StepResult) {
	a.samples++
	a.energyJ += r.EnergyJ
	a.powerW += r.TruePowerW
	for len(a.met) < len(r.Services) {
		a.met = append(a.met, 0)
		a.tard = append(a.tard, 0)
		a.cores = append(a.cores, 0)
		a.freq = append(a.freq, 0)
	}
	for i, sv := range r.Services {
		if sv.P99Ms <= sv.QoSTargetMs {
			a.met[i]++
		}
		so := ctrl.ServiceObs{P99Ms: sv.P99Ms, QoSTargetMs: sv.QoSTargetMs}
		a.tard[i] += experiments.SummaryTardiness(so.Tardiness())
		a.cores[i] += float64(sv.NumCores)
		a.freq[i] += sv.FreqGHz
	}
}

func (a *summaryAcc) print() {
	if a.samples == 0 {
		return
	}
	n := float64(a.samples)
	fmt.Println("\nsummary (final window):")
	for i := range a.met {
		fmt.Printf("  service %d: QoS guarantee %s  mean tardiness %.2f  avg alloc %.1f cores @ %.2f GHz\n",
			i, report.Percent(a.met[i]/n), a.tard[i]/n, a.cores[i]/n, a.freq[i]/n)
	}
	fmt.Printf("  energy %.0f J (avg %.1f W)\n", a.energyJ, a.powerW/n)
}

func csvHeader(names []string) []string {
	h := []string{"t", "power_w"}
	for _, n := range names {
		h = append(h, n+"_cores", n+"_freq_ghz", n+"_p99_ms", n+"_rps")
	}
	return h
}

func csvRow(t int, r sim.StepResult) []interface{} {
	row := []interface{}{t, r.TruePowerW}
	for _, sv := range r.Services {
		row = append(row, sv.NumCores, sv.FreqGHz, sv.P99Ms, sv.OfferedRPS)
	}
	return row
}

// loadInto seeds the manager from -load: a checkpoint written by -save
// or -checkpoint-dir, whose manager section is pulled out so training
// resumes bit-identically. Anything else is refused.
func loadInto(mgr *core.Manager, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if !checkpoint.IsCheckpoint(data) {
		return fmt.Errorf("%s is not a twig checkpoint (the gob weight files of old builds are no longer read: load it with the build that wrote it and write it again with -save)", path)
	}
	if err := mgr.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("restoring checkpoint %s: %w", path, err)
	}
	fmt.Printf("twigd: restored manager checkpoint from %s\n", path)
	return nil
}

// serve runs daemon.NewServer over h in the background; an error other
// than its close is printed.
func serve(addr string, h http.Handler) {
	server := daemon.NewServer(addr, h)
	go func() {
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "twigd: http server: %v\n", err)
		}
	}()
}

// scenarioWorlds expands the validated -scenario preset at the run's
// seed. Used by both the single-node engine (first world) and the fleet
// (one node per world).
func scenarioWorlds(cfg runConfig) ([]scenario.World, error) {
	spec, err := scenario.Named(cfg.scenario)
	if err != nil {
		return nil, err
	}
	worlds, err := spec.Worlds(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("expanding scenario %q: %w", cfg.scenario, err)
	}
	return worlds, nil
}
