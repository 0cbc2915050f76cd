package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
)

// FaultCell is one (scenario, manager, guarded?) run of the robustness
// matrix.
type FaultCell struct {
	Scenario string
	Manager  string
	Guarded  bool
	// MeanQoS and MinQoS summarise the per-service QoS guarantees over
	// the evaluation window; intervals where a service is dark count as
	// violations.
	MeanQoS float64
	MinQoS  float64
	EnergyJ float64
	// MeanRecoveryS is the mean number of intervals from a service's
	// restart until its first interval back under the QoS target;
	// Recoveries counts the episodes measured.
	MeanRecoveryS float64
	Recoveries    int
	// DecidePanics and StepErrors are the loop-level interventions (a
	// guarded controller should drive both to zero on its own).
	DecidePanics int
	StepErrors   int
	// Guard reports the wrapper's internal interventions (zero when
	// Guarded is false).
	Guard ctrl.GuardHealth
}

// FigFaultResult is the full robustness matrix: every manager with and
// without the Guard wrapper under every graded fault scenario.
type FigFaultResult struct {
	Scenarios []string
	Services  []string
	Cells     []FaultCell
}

// figFaultManagers enumerates the compared managers.
var figFaultManagers = []string{"twig-c", "parties", "static"}

// FigFault runs the robustness comparison: masstree and xapian colocated
// at a moderate fixed load, managed by Twig-C and two baselines, each
// with and without the resilient Guard wrapper, under the named fault
// scenarios. It is the harness behind the "fault model" section of
// DESIGN.md rather than a figure of the original paper. Every
// (scenario, manager, guarded?) run is an independent cell.
func FigFault(sc Scale, seed int64) FigFaultResult {
	return figFault(sc, seed, []string{"none", "sensor", "actuator", "crash", "hostile"})
}

// figFault runs the matrix over the named scenarios only.
func figFault(sc Scale, seed int64, scenarios []string) FigFaultResult {
	perScen := 2 * len(figFaultManagers)
	res := FigFaultResult{
		Scenarios: scenarios,
		Services:  []string{"masstree", "xapian"},
		Cells:     make([]FaultCell, len(scenarios)*perScen),
	}
	par.For(len(res.Cells), func(i int) {
		fs := faults.MustNamed(scenarios[i/perScen])
		adaptScenario(&fs, sc.LearnS+sc.SummaryS)
		mgr := figFaultManagers[i%perScen/2]
		res.Cells[i] = FaultCellRun(sc, seed, fs, mgr, i%2 == 1, res.Services)
	})
	return res
}

// adaptScenario rescales crash episodes so short runs still see several
// crash/restart cycles inside the evaluation window.
func adaptScenario(fs *faults.Scenario, totalS int) {
	if fs.CrashPeriodS <= 0 {
		return
	}
	if totalS < 2*fs.CrashPeriodS {
		fs.CrashPeriodS = totalS / 5
		if fs.CrashPeriodS < 30 {
			fs.CrashPeriodS = 30
		}
	}
	if fs.CrashOfflineS >= fs.CrashPeriodS/2 {
		fs.CrashOfflineS = fs.CrashPeriodS / 3
		if fs.CrashOfflineS < 1 {
			fs.CrashOfflineS = 1
		}
	}
}

// FaultCellRun executes one cell of the robustness matrix.
func FaultCellRun(sc Scale, seed int64, fs faults.Scenario, manager string, guarded bool, names []string) FaultCell {
	srv := NewFaultyServer(seed, &fs, names...)
	c := newController(manager, srv, sc, seed, names...)
	var guard *ctrl.Guard
	if guarded {
		guard = ctrl.NewGuard(c, ctrl.GuardConfigFor(srv))
		c = guard
	}

	k := len(names)
	crashActive := make([]bool, k)
	restartAt := make([]int, k)
	for i := range restartAt {
		restartAt[i] = -1
	}
	recSum, recN := 0, 0

	sum := Run(RunConfig{
		Server:       srv,
		Controller:   c,
		Patterns:     fixedLoads(0.3, names...),
		Seconds:      sc.LearnS + sc.SummaryS,
		SummaryFromS: sc.LearnS,
		Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
			for i := 0; i < k; i++ {
				now := false
				for _, e := range r.Faults {
					if e.Kind == faults.ServiceCrash && e.Service == i {
						now = true
					}
				}
				if crashActive[i] && !now {
					restartAt[i] = t // first interval back up
				}
				crashActive[i] = now
				if restartAt[i] >= 0 && !now {
					sv := r.Services[i]
					if !math.IsNaN(sv.P99Ms) && sv.P99Ms <= sv.QoSTargetMs {
						recSum += t - restartAt[i]
						recN++
						restartAt[i] = -1
					}
				}
			}
		},
	})

	cell := FaultCell{
		Scenario:     fs.Name,
		Manager:      manager,
		Guarded:      guarded,
		EnergyJ:      sum.EnergyJ,
		DecidePanics: sum.DecidePanics,
		StepErrors:   sum.StepErrors,
		Recoveries:   recN,
	}
	cell.MeanQoS, cell.MinQoS = meanMin(sum.QoSGuarantee)
	if recN > 0 {
		cell.MeanRecoveryS = float64(recSum) / float64(recN)
	}
	if guard != nil {
		cell.Guard = guard.Health()
	}
	return cell
}

// String renders the matrix grouped by scenario.
func (r FigFaultResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault matrix: %s colocated, guarded vs unguarded managers\n",
		strings.Join(r.Services, " + "))
	for _, scen := range r.Scenarios {
		fmt.Fprintf(&b, "  scenario %-10s\n", scen)
		for _, c := range r.Cells {
			if c.Scenario != scen {
				continue
			}
			name := c.Manager
			if c.Guarded {
				name += "+guard"
			}
			fmt.Fprintf(&b, "    %-14s QoS mean %5.1f%% min %5.1f%%, energy %8.0f J",
				name, c.MeanQoS*100, c.MinQoS*100, c.EnergyJ)
			if c.Recoveries > 0 {
				fmt.Fprintf(&b, ", recovery %.1f s over %d crashes", c.MeanRecoveryS, c.Recoveries)
			}
			if c.DecidePanics > 0 || c.StepErrors > 0 {
				fmt.Fprintf(&b, ", loop saves %d panics/%d rejects", c.DecidePanics, c.StepErrors)
			}
			if c.Guarded {
				g := c.Guard
				fmt.Fprintf(&b, ", guard[obs %d stale %d panics %d clamps %d trips %d]",
					g.ObsRepaired, g.StaleExceeded, g.PanicsRecovered, g.ActionsClamped, g.BreakerTrips)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
