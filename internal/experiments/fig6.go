package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/stats"
)

// Fig6Trace is one manager's mapping behaviour for Fig. 6: the
// distribution of core allocations over the summary window (the left
// colourmaps) and the histogram of QoS tardiness (the right panels).
type Fig6Trace struct {
	Manager string
	// CoreHistogram[c] counts intervals with c cores allocated.
	CoreHistogram map[int]int
	// Tardiness is the histogram of QoS/target over the window.
	Tardiness *stats.Histogram
	// QoSGuarantee and mean allocation for the window.
	QoSGuarantee float64
	AvgCores     float64
	Migrations   int
}

// Fig6Result compares Heracles, Hipster and Twig-S mapping decisions for
// Masstree at 50% of the maximum load over a 300 s window.
type Fig6Result struct {
	Service  string
	LoadFrac float64
	Traces   []Fig6Trace
}

// Fig6 runs the experiment, each manager an independent cell.
func Fig6(sc Scale, seed int64) Fig6Result {
	const svcName = "masstree"
	const lf = 0.5
	managers := []string{"heracles", "hipster", "twig-s"}
	res := Fig6Result{Service: svcName, LoadFrac: lf, Traces: make([]Fig6Trace, len(managers))}
	par.For(len(managers), func(i int) {
		srv := NewServer(seed, svcName)
		trace := Fig6Trace{Manager: managers[i], CoreHistogram: map[int]int{}}
		var tard []float64
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(managers[i], srv, sc, seed, svcName),
			Patterns:     fixedLoads(lf, svcName),
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
			Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
				if t < sc.LearnS {
					return
				}
				sv := r.Services[0]
				trace.CoreHistogram[sv.NumCores]++
				tard = append(tard, sv.P99Ms/sv.QoSTargetMs)
			},
		})
		trace.Tardiness = stats.NewHistogram(tard, 0, 2, 40)
		trace.QoSGuarantee = sum.QoSGuarantee[0]
		trace.AvgCores = sum.AvgCores[0]
		trace.Migrations = sum.Migrations
		res.Traces[i] = trace
	})
	return res
}

// String renders the distributions.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.6 %s at %.0f%% load: mapping + tardiness distributions\n", r.Service, r.LoadFrac*100)
	for _, tr := range r.Traces {
		fmt.Fprintf(&b, "  %-9s QoS %.1f%%, avg %.1f cores, %d migrations\n",
			tr.Manager, tr.QoSGuarantee*100, tr.AvgCores, tr.Migrations)
		fmt.Fprintf(&b, "    cores: ")
		for c := 1; c <= 18; c++ {
			if n := tr.CoreHistogram[c]; n > 0 {
				fmt.Fprintf(&b, "%d×%d ", c, n)
			}
		}
		b.WriteString("\n    tardiness p50/p99 bucket mass: ")
		var below, above int
		for i, n := range tr.Tardiness.Counts {
			if tr.Tardiness.BinCenter(i) <= 1 {
				below += n
			} else {
				above += n
			}
		}
		fmt.Fprintf(&b, "%d met / %d violated\n", below, above)
	}
	return b.String()
}
