package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Fig12Trace is one manager's mapping distribution over the window.
type Fig12Trace struct {
	Manager string
	// CoreHist[k][c] counts intervals where service k held c cores.
	CoreHist []map[int]int
	// Migrations counts per-service core-set changes over the window;
	// PARTIES "ping-pongs across mapping decisions" while Twig-C stays
	// stable.
	Migrations   int
	QoSGuarantee []float64
	AvgPowerW    float64
}

// Fig12Result reproduces Fig. 12: the core-mapping distributions of
// PARTIES and Twig-C for Masstree at 20% and Moses at 80% of their
// colocated operable maxima over a 600 s window.
type Fig12Result struct {
	WindowS int
	Traces  []Fig12Trace
}

// Fig12 runs the comparison, each manager an independent cell.
func Fig12(sc Scale, seed int64) Fig12Result {
	frac := PairMaxFraction("masstree", "moses")
	massLoad := 0.2 * frac * service.MustLookup("masstree").MaxLoadRPS
	mosesLoad := 0.8 * frac * service.MustLookup("moses").MaxLoadRPS
	window := 2 * sc.SummaryS // the paper summarises PARTIES over 600 s
	total := sc.LearnS + window
	managers := []string{"parties", "twig-c"}
	res := Fig12Result{WindowS: window, Traces: make([]Fig12Trace, len(managers))}
	par.For(len(managers), func(i int) {
		srv := NewServer(seed, "masstree", "moses")
		tr := Fig12Trace{Manager: managers[i], CoreHist: []map[int]int{{}, {}}}
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(managers[i], srv, sc, seed, "masstree", "moses"),
			Patterns:     []loadgen.Pattern{loadgen.Fixed(massLoad), loadgen.Fixed(mosesLoad)},
			Seconds:      total,
			SummaryFromS: sc.LearnS,
			Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
				if t < sc.LearnS {
					return
				}
				for k := 0; k < 2; k++ {
					tr.CoreHist[k][r.Services[k].NumCores]++
				}
			},
		})
		tr.Migrations = sum.Migrations
		tr.QoSGuarantee = sum.QoSGuarantee
		tr.AvgPowerW = sum.AvgPowerW
		res.Traces[i] = tr
	})
	return res
}

// String renders the mapping distributions.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.12 mapping distributions, masstree@20%% + moses@80%% of pair max (%d s window)\n", r.WindowS)
	for _, tr := range r.Traces {
		fmt.Fprintf(&b, "  %-8s QoS [%.1f%% %.1f%%], power %.1f W, %d migrations\n",
			tr.Manager, tr.QoSGuarantee[0]*100, tr.QoSGuarantee[1]*100, tr.AvgPowerW, tr.Migrations)
		for k, svc := range []string{"masstree", "moses"} {
			fmt.Fprintf(&b, "    %-9s cores:", svc)
			for c := 1; c <= 18; c++ {
				if n := tr.CoreHist[k][c]; n > 0 {
					fmt.Fprintf(&b, " %d×%d", c, n)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
