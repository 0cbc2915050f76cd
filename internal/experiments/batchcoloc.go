package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/batch"
	"github.com/twig-sched/twig/internal/sim/service"
)

// BatchColocCell is one manager's outcome in the LC + batch scenario.
type BatchColocCell struct {
	Manager      string
	QoSGuarantee float64
	// BatchWork is the best-effort work completed over the summary
	// window, in GHz·core·seconds — the system-throughput dimension the
	// Heracles/PARTIES line of work optimises.
	BatchWork float64
	AvgPowerW float64
}

// BatchColocResult colocates one LC service with a best-effort batch
// workload that soaks every released core, and compares how much batch
// throughput each manager's reclamation produces at what QoS cost. The
// paper evaluates LC-only colocation; this extension recreates the
// LC + batch setting its related-work section frames.
type BatchColocResult struct {
	Service  string
	LoadFrac float64
	Cells    []BatchColocCell
}

// BatchColoc runs the comparison for Img-dnn at 50% load with the
// default analytics batch, each manager an independent cell.
func BatchColoc(sc Scale, seed int64) BatchColocResult {
	const svcName = "img-dnn"
	const lf = 0.5
	prof := service.MustLookup(svcName)
	managers := []string{"static", "heracles", "twig-s"}
	res := BatchColocResult{Service: svcName, LoadFrac: lf, Cells: make([]BatchColocCell, len(managers))}
	total := sc.LearnS + sc.SummaryS
	par.For(len(managers), func(i int) {
		cfg := sim.DefaultConfig()
		cfg.MeasurementSeed = seed
		spec := batch.DefaultSpec()
		cfg.Batch = &spec
		srv := sim.NewServer(cfg, []sim.ServiceSpec{{
			Profile: prof, QoSTargetMs: QoSTarget(svcName), Seed: seed,
		}})
		var work float64
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(managers[i], srv, sc, seed, svcName),
			Patterns:     fixedLoads(lf, svcName),
			Seconds:      total,
			SummaryFromS: sc.LearnS,
			Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
				if t >= sc.LearnS {
					work += r.Batch.WorkDone
				}
			},
		})
		res.Cells[i] = BatchColocCell{
			Manager:      managers[i],
			QoSGuarantee: sum.QoSGuarantee[0],
			BatchWork:    work,
			AvgPowerW:    sum.AvgPowerW,
		}
	})
	return res
}

// String renders the throughput comparison.
func (r BatchColocResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: LC + best-effort batch (%s @ %.0f%%)\n", r.Service, r.LoadFrac*100)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-9s QoS %6.1f%%  batch work %8.0f GHz·s  power %5.1f W\n",
			c.Manager, c.QoSGuarantee*100, c.BatchWork, c.AvgPowerW)
	}
	return b.String()
}
