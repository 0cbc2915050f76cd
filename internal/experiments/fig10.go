package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Fig10Trace is one manager's behaviour under the varying load.
type Fig10Trace struct {
	Manager      string
	QoSGuarantee float64
	EnergyJ      float64
	Migrations   int
	// Cores and FreqGHz are sampled once per load step for the trace
	// plot.
	Cores   []int
	FreqGHz []float64
	LoadRPS []float64
}

// Fig10Result reproduces Fig. 10: resource allocation of Twig-S, Hipster
// and Heracles under the step-wise monotonic varying load for Img-dnn
// (change factor 20%, steps every ladderPeriod seconds).
type Fig10Result struct {
	Service string
	PeriodS int
	Traces  []Fig10Trace
}

// ladderPeriod is the step period of Figs. 10 and 11's load ladder: the
// paper's 200 s, or LearnS/20 (at least 10 s) at scales that learn for
// less than 4 000 s, so a short run still climbs several steps.
func ladderPeriod(sc Scale) int {
	return max(10, min(200, sc.LearnS/20))
}

// Fig10 runs the varying-load comparison, each manager an independent
// cell.
func Fig10(sc Scale, seed int64) Fig10Result {
	const svcName = "img-dnn"
	prof := service.MustLookup(svcName)
	period := ladderPeriod(sc)
	gen := loadgen.NewStepWise(0.2*prof.MaxLoadRPS, 0.9*prof.MaxLoadRPS, 0.2, period)
	total := sc.LearnS + sc.SummaryS*3 // a few ladders after learning
	managers := []string{"twig-s", "hipster", "heracles"}
	res := Fig10Result{Service: svcName, PeriodS: period, Traces: make([]Fig10Trace, len(managers))}
	par.For(len(managers), func(i int) {
		srv := NewServer(seed, svcName)
		tr := Fig10Trace{Manager: managers[i]}
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(managers[i], srv, sc, seed, svcName),
			Patterns:     []loadgen.Pattern{gen},
			Seconds:      total,
			SummaryFromS: sc.LearnS,
			Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
				if t >= sc.LearnS && t%period == period/2 {
					tr.Cores = append(tr.Cores, r.Services[0].NumCores)
					tr.FreqGHz = append(tr.FreqGHz, r.Services[0].FreqGHz)
					tr.LoadRPS = append(tr.LoadRPS, r.Services[0].OfferedRPS)
				}
			},
		})
		tr.QoSGuarantee = sum.QoSGuarantee[0]
		tr.EnergyJ = sum.EnergyJ
		tr.Migrations = sum.Migrations
		res.Traces[i] = tr
	})
	return res
}

// String renders the traces.
func (r Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.10 varying load on %s (step period %d s)\n", r.Service, r.PeriodS)
	for _, tr := range r.Traces {
		fmt.Fprintf(&b, "  %-9s QoS %.1f%%, energy %.0f J, %d migrations\n",
			tr.Manager, tr.QoSGuarantee*100, tr.EnergyJ, tr.Migrations)
		fmt.Fprintf(&b, "    load→alloc:")
		for i := range tr.Cores {
			fmt.Fprintf(&b, " %0.0f:%dc@%.1f", tr.LoadRPS[i], tr.Cores[i], tr.FreqGHz[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
