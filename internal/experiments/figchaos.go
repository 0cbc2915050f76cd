package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
)

// PooledFleetFactory builds the per-node controller stack every fleet
// runs (figchaos, twigd -nodes, the benchmark): a full Twig manager
// sized to the node's current replica membership, with fitted power
// models and calibrated learning at the given scale. The manager is
// also the node's checkpointable component, so its learning state
// travels in warm snapshots and fleet checkpoints. Every node's agent
// is attached to a shared AgentPool: trajectories are bit-for-bit those
// of unpooled managers, each agent learning and selecting through its
// own code. The returned flush runs the fleet's queued work; pass it as
// cluster.Config.Flush so the coordinator drives the PrepareDecide /
// flush / FinishDecide phases. Node rebuilds, drains and failovers leave
// the pool through ctrl.Closer.
func PooledFleetFactory(sc Scale) (cluster.ControllerFactory, func()) {
	pools := bdq.NewPools()
	factory := func(srv *sim.Server, specs []cluster.ReplicaSpec, seed int64) (ctrl.Controller, []checkpoint.Checkpointable) {
		mgr := core.NewManagerPooled(fleetManagerConfig(sc, srv, specs, seed), srv.ManagedCores(), pools)
		return mgr, []checkpoint.Checkpointable{mgr}
	}
	return factory, pools.FlushStep
}

// fleetManagerConfig sizes one node's Twig manager to its current
// replica membership at the given learning scale.
func fleetManagerConfig(sc Scale, srv *sim.Server, specs []cluster.ReplicaSpec, seed int64) core.Config {
	services := make([]core.ServiceConfig, len(specs))
	for i, sp := range specs {
		services[i] = ServiceConfigFor(sp.Service, sp.QoSTargetMs)
	}
	return ManagerConfig(srv, sc, seed, services)
}

// ChaosMix is the replica set every chaos cell admits at t=0: three LC
// replicas at distinct priorities plus two batch replicas, five
// replicas over six fleet slots so a single node outage forces the
// degradation policy to choose.
func ChaosMix() []cluster.ReplicaSpec {
	return []cluster.ReplicaSpec{
		{Service: "masstree", LoadFrac: 0.35, QoSTargetMs: QoSTarget("masstree"), Class: cluster.LC, Priority: 2},
		{Service: "xapian", LoadFrac: 0.35, QoSTargetMs: QoSTarget("xapian"), Class: cluster.LC, Priority: 1},
		{Service: "img-dnn", LoadFrac: 0.3, QoSTargetMs: QoSTarget("img-dnn"), Class: cluster.LC, Priority: 0},
		{Service: "moses", LoadFrac: 0.2, QoSTargetMs: QoSTarget("moses"), Class: cluster.Batch},
		{Service: "masstree", LoadFrac: 0.2, QoSTargetMs: QoSTarget("masstree"), Class: cluster.Batch, Priority: 1},
	}
}

// ChaosCell is one (scenario, placement policy) fleet run.
type ChaosCell struct {
	Scenario string
	Manager  string // "twig-fleet" or "static-pin"
	// MeanQoS and MinQoS summarise the per-replica QoS guarantees with
	// dark intervals counted as violations, so a policy that leaves
	// replicas dark cannot hide it.
	MeanQoS float64
	MinQoS  float64
	EnergyJ float64
	// DarkIntervals sums every interval any replica spent unserved.
	DarkIntervals  int
	Migrations     int
	WarmRestores   int
	ColdRestores   int
	DeadLetters    int
	ShedIntervals  int
	LeaseExpiries  int
	PlacementFails int
	EventsInjected int
	// Invariants lists end-of-sweep invariant violations (empty = clean).
	Invariants []string
}

// FigChaosResult is the fleet robustness comparison: the Twig fleet
// coordinator (warm failover, class-aware shedding) against static
// partitioning (replica i pinned to node i mod N) under graded
// whole-node fault scenarios.
type FigChaosResult struct {
	Scenarios []string
	Nodes     int
	Seconds   int
	Cells     []ChaosCell
}

// FigChaos runs the chaos sweep at both placement policies under every
// named cluster scenario, every (scenario, policy) fleet an independent
// cell. Runs are deterministic: the same (scale, seed) reruns
// byte-identically, which TestFigChaos pins.
func FigChaos(sc Scale, seed int64) FigChaosResult {
	const nodes = 3
	seconds := 400
	if sc.Name == "paper" {
		seconds = 1500
	}
	scenarios := []string{"none", "nodecrash", "partition", "chaos"}
	res := FigChaosResult{Scenarios: scenarios, Nodes: nodes, Seconds: seconds, Cells: make([]ChaosCell, 2*len(scenarios))}
	par.For(len(res.Cells), func(i int) {
		cs := faults.MustNamedCluster(scenarios[i/2])
		adaptClusterScenario(&cs, seconds)
		res.Cells[i] = ChaosCellRun(sc, seed, cs, i%2 == 1, nodes, seconds)
	})
	return res
}

// adaptClusterScenario rescales outage periods so short sweeps still see
// several whole-node episodes, and ends scheduling early enough that
// every placement can settle before the invariant check.
func adaptClusterScenario(cs *faults.ClusterScenario, totalS int) {
	shrink := func(period *int) {
		if *period > 0 && totalS < 2**period {
			*period = totalS / 4
			if *period < 20 {
				*period = 20
			}
		}
	}
	shrink(&cs.CrashPeriodS)
	shrink(&cs.PartitionPeriodS)
	if cs.CrashOfflineS > cs.CrashPeriodS/2 && cs.CrashPeriodS > 0 {
		cs.CrashOfflineS = cs.CrashPeriodS / 3
	}
	settle := totalS / 5
	if settle < 60 {
		settle = 60
	}
	if cs.QuietAfterS == 0 || cs.QuietAfterS > totalS-settle {
		cs.QuietAfterS = totalS - settle
	}
}

// ChaosCellRun executes one chaos cell: a fleet of Twig nodes under one
// scenario, with the coordinator's adaptive placement or the pinned
// static baseline.
func ChaosCellRun(sc Scale, seed int64, cs faults.ClusterScenario, pin bool, nodes, seconds int) ChaosCell {
	factory, flush := PooledFleetFactory(sc)
	c, err := cluster.New(cluster.Config{
		Nodes:        nodes,
		NodeCapacity: 2,
		Seed:         seed,
		Scenario:     cs,
		// A real retry budget: with 0 the first failed attempt
		// dead-letters, which would let the pinned baseline freeze its
		// dark-interval accounting instead of waiting out the outage.
		MaxRetries:  4,
		PinReplicas: pin,
		Factory:     factory,
		Flush:       flush,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	for _, spec := range ChaosMix() {
		if _, err := c.Admit(spec); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	for t := 0; t < seconds; t++ {
		c.Step()
	}
	sum := c.Summary()

	manager := "twig-fleet"
	if pin {
		manager = "static-pin"
	}
	cell := ChaosCell{
		Scenario:       cs.Name,
		Manager:        manager,
		EnergyJ:        sum.EnergyJ,
		Migrations:     sum.Migrations,
		WarmRestores:   sum.WarmRestores,
		ColdRestores:   sum.ColdRestores,
		DeadLetters:    sum.DeadLetters,
		ShedIntervals:  sum.ShedIntervals,
		LeaseExpiries:  sum.LeaseExpiries,
		PlacementFails: sum.PlacementFails,
		EventsInjected: sum.EventsInjected,
		Invariants:     ChaosInvariantErrors(sum),
	}
	qs := make([]float64, len(sum.Replicas))
	for i, r := range sum.Replicas {
		qs[i] = r.QoS
		cell.DarkIntervals += r.DarkIntervals
	}
	cell.MeanQoS, cell.MinQoS = meanMin(qs)
	return cell
}

// ChaosInvariantErrors checks the end-of-sweep fleet invariants the
// chaos harness guarantees after the scenario's quiet window: every
// replica is either running on a node whose lease is valid (and listed
// in that node's routing table) or terminally dead-lettered with a
// reason; no replica is still shed; and every replica's carried
// accounting balances — one tick per interval it existed, violations
// bounded by dark intervals below and total ticks above.
func ChaosInvariantErrors(sum cluster.Summary) []string {
	var errs []string
	nodeByID := map[int]cluster.NodeView{}
	for _, n := range sum.Nodes {
		nodeByID[n.ID] = n
	}
	for _, r := range sum.Replicas {
		tag := fmt.Sprintf("replica %d (%s)", r.ID, r.Service)
		switch r.State {
		case "running":
			n, ok := nodeByID[r.Node]
			if !ok || n.State != "up" || !n.Lease {
				errs = append(errs, fmt.Sprintf("%s running on unhealthy node %d", tag, r.Node))
				break
			}
			listed := false
			for _, id := range n.Replicas {
				if id == r.ID {
					listed = true
				}
			}
			if !listed {
				errs = append(errs, fmt.Sprintf("%s not in node %d routing table", tag, r.Node))
			}
		case "dead-letter":
			if r.Reason == "" {
				errs = append(errs, tag+" dead-lettered without a reason")
			}
		default:
			errs = append(errs, fmt.Sprintf("%s unresolved at sweep end: %s", tag, r.State))
		}
		if r.Shed {
			errs = append(errs, tag+" still shed after the quiet window")
		}
		ticks := r.Intervals + r.DarkIntervals
		if r.State != "dead-letter" && ticks != sum.Time {
			errs = append(errs, fmt.Sprintf("%s accounting leak: %d ticks over %d intervals", tag, ticks, sum.Time))
		}
		if r.Violations < r.DarkIntervals || r.Violations > ticks {
			errs = append(errs, fmt.Sprintf("%s violations %d outside [%d,%d]", tag, r.Violations, r.DarkIntervals, ticks))
		}
	}
	return errs
}

// String renders the comparison grouped by scenario.
func (r FigChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos fleet: %d nodes, %d replicas, %d s sweeps, Twig fleet vs static partitioning\n",
		r.Nodes, len(ChaosMix()), r.Seconds)
	for _, scen := range r.Scenarios {
		fmt.Fprintf(&b, "  scenario %-10s\n", scen)
		for _, c := range r.Cells {
			if c.Scenario != scen {
				continue
			}
			fmt.Fprintf(&b, "    %-11s QoS mean %5.1f%% min %5.1f%%, dark %4d s, energy %8.0f J",
				c.Manager, c.MeanQoS*100, c.MinQoS*100, c.DarkIntervals, c.EnergyJ)
			if c.EventsInjected > 0 {
				fmt.Fprintf(&b, ", events %d, expiries %d, migrations %d (%d warm), shed %d s",
					c.EventsInjected, c.LeaseExpiries, c.Migrations, c.WarmRestores, c.ShedIntervals)
			}
			if c.DeadLetters > 0 {
				fmt.Fprintf(&b, ", dead-letters %d", c.DeadLetters)
			}
			if len(c.Invariants) > 0 {
				fmt.Fprintf(&b, ", INVARIANT VIOLATIONS %v", c.Invariants)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
