package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/baselines"
	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
)

// ScenCell is one (scenario world, manager) run of the cross-scenario
// comparison.
type ScenCell struct {
	Scenario string
	World    string
	Manager  string
	// MeanQoS and MinQoS summarise the per-service QoS guarantees over
	// the evaluation window.
	MeanQoS float64
	MinQoS  float64
	EnergyJ float64
	// AvgPowerW is the mean managed-socket power over the window —
	// comparable within a world, not across SKUs.
	AvgPowerW float64
	// Migrations counts core-set changes (the oscillation metric).
	Migrations   int
	DecidePanics int
	StepErrors   int
}

// FigScenResult is the full sweep: every world of every scenario preset
// under every compared manager.
type FigScenResult struct {
	Scale     string
	Scenarios []string
	Cells     []ScenCell
}

// figScenManagers enumerates the compared managers.
var figScenManagers = []string{"twig-c", "parties", "static"}

// ScenQoSTarget returns the p99 target for one service of a scenario
// world. Targets are application-level SLOs — the Table II calibration
// on the reference platform — and deliberately identical across tiers:
// a WAN-distant tier's latency tax eats into the same budget rather
// than relaxing it, and a capped edge SKU must meet the same contract
// with less silicon. That asymmetry is what the scenario comparison
// measures; calibrating per tier would define it away.
func ScenQoSTarget(w scenario.World, name string) float64 {
	return QoSTarget(name)
}

// scenWorld builds the simulated node for one world: its class SKU and
// latency tax, SLO targets, and the world's own generated traces as
// load patterns.
func scenWorld(w scenario.World, seed int64) *sim.Server {
	cfg := w.SimConfig(seed)
	specs := w.ServiceSpecs(seed, func(name string) float64 { return ScenQoSTarget(w, name) })
	return sim.NewServer(cfg, specs)
}

// scenManager builds one compared manager for a world's server.
func scenManager(manager string, srv *sim.Server, w scenario.World, sc Scale, seed int64) ctrl.Controller {
	switch manager {
	case "twig-c":
		return newScenTwig(srv, w, sc, seed)
	case "parties":
		return baselines.NewParties(baselines.DefaultPartiesConfig(), srv.ManagedCores(), len(w.Services))
	case "static":
		return baselines.NewStatic(srv.ManagedCores(), len(w.Services))
	}
	panic("experiments: unknown scenario manager " + manager)
}

// newScenTwig is NewTwig against a scenario world's server: same SLO
// targets (they must match what the world's server reports or tardiness
// would be computed against the wrong bar), but NumCores/MaxPowerW
// taken from the world's SKU.
func newScenTwig(srv *sim.Server, w scenario.World, sc Scale, seed int64) *core.Manager {
	services := make([]core.ServiceConfig, len(w.Services))
	for i, n := range w.Services {
		services[i] = ServiceConfigFor(n, ScenQoSTarget(w, n))
	}
	return core.NewManager(ManagerConfig(srv, sc, seed, services), srv.ManagedCores())
}

// ScenCellRun executes one cell: one manager driving one world for the
// scale's learning + evaluation window under the world's traces.
func ScenCellRun(sc Scale, seed int64, w scenario.World, manager string) ScenCell {
	srv := scenWorld(w, seed)
	c := scenManager(manager, srv, w, sc, seed)
	sum := Run(RunConfig{
		Server:       srv,
		Controller:   c,
		Patterns:     w.Patterns(),
		Seconds:      sc.LearnS + sc.SummaryS,
		SummaryFromS: sc.LearnS,
	})
	cell := ScenCell{
		Scenario:     w.Scenario,
		World:        w.Name,
		Manager:      manager,
		MinQoS:       1,
		EnergyJ:      sum.EnergyJ,
		AvgPowerW:    sum.AvgPowerW,
		Migrations:   sum.Migrations,
		DecidePanics: sum.DecidePanics,
		StepErrors:   sum.StepErrors,
	}
	for _, q := range sum.QoSGuarantee {
		cell.MeanQoS += q
		if q < cell.MinQoS {
			cell.MinQoS = q
		}
	}
	cell.MeanQoS /= float64(len(sum.QoSGuarantee))
	return cell
}

// FigScen sweeps every built-in scenario preset: each world of each
// preset is driven by Twig-C, PARTIES and static. Deterministic for a
// given (scale, seed) — reruns render byte-identically.
func FigScen(sc Scale, seed int64) FigScenResult {
	return figScen(sc, seed, scenario.Names())
}

// scenCellSpec names one cell of the sweep: a world, the manager driving
// it and the cell's own seed.
type scenCellSpec struct {
	w       scenario.World
	manager string
	seed    int64
}

// figScenCells enumerates the sweep's cells in rendering order.
func figScenCells(seed int64, names []string) []scenCellSpec {
	var cells []scenCellSpec
	for _, name := range names {
		worlds, err := scenario.MustNamed(name).Worlds(seed)
		if err != nil {
			panic(err)
		}
		for _, w := range worlds {
			for mi, mgr := range figScenManagers {
				cells = append(cells, scenCellSpec{
					w: w, manager: mgr,
					seed: seed + int64(w.NodeIndex)*10007 + int64(mi)*97,
				})
			}
		}
	}
	return cells
}

func figScen(sc Scale, seed int64, names []string) FigScenResult {
	res := FigScenResult{Scale: sc.Name, Scenarios: names}
	cells := figScenCells(seed, names)
	res.Cells = make([]ScenCell, len(cells))
	forEachCell(len(cells), func(i int) {
		res.Cells[i] = ScenCellRun(sc, cells[i].seed, cells[i].w, cells[i].manager)
	})
	return res
}

// FigScenShort is the CI harness: the full preset sweep at a shrunken
// scale whose cells finish in seconds. Determinism is the point — the
// scenario-smoke job runs it twice and diffs the output.
func FigScenShort(seed int64) FigScenResult {
	return FigScen(ShortScale(), seed)
}

// ShortScale shrinks QuickScale to smoke-test size: tiny networks and a
// 200-interval run, preserving the mechanics rather than the learning
// outcome.
func ShortScale() Scale {
	sc := QuickScale()
	sc.Name = "short"
	sc.SharedHidden = []int{16, 12}
	sc.BranchHidden = 8
	sc.BatchSize = 16
	sc.Epsilon = bdq.EpsilonSchedule{Start: 1, Mid: 0.2, End: 0.05, MidStep: 60, EndStep: 120}
	sc.PERAnneal = 150
	sc.LearnS = 150
	sc.SummaryS = 50
	return sc
}

// String renders the sweep grouped by scenario and world.
func (r FigScenResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario sweep (%s scale): Twig-C vs baselines per workload family\n", r.Scale)
	for _, scen := range r.Scenarios {
		sp := scenario.MustNamed(scen)
		fmt.Fprintf(&b, "  scenario %-14s %s\n", scen, sp.Description)
		world := ""
		for _, c := range r.Cells {
			if c.Scenario != scen {
				continue
			}
			if c.World != world {
				world = c.World
				fmt.Fprintf(&b, "    %s\n", world)
			}
			fmt.Fprintf(&b, "      %-8s QoS mean %5.1f%% min %5.1f%%, energy %9.0f J, power %6.1f W, migrations %d",
				c.Manager, c.MeanQoS*100, c.MinQoS*100, c.EnergyJ, c.AvgPowerW, c.Migrations)
			if c.DecidePanics > 0 || c.StepErrors > 0 {
				fmt.Fprintf(&b, ", loop saves %d panics/%d rejects", c.DecidePanics, c.StepErrors)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
