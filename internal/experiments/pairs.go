package experiments

import (
	"sync"

	"github.com/twig-sched/twig/internal/baselines"
	"github.com/twig-sched/twig/internal/sim/service"
)

var (
	pairMu    sync.Mutex
	pairCache = map[[2]string]float64{}
)

// PairMaxFraction finds the largest common fraction of each service's
// solo maximum load at which the two colocated services both meet their
// QoS targets under an even static split — the paper's offline sweep
// ("we do an offline sweep of all service combinations in steps of 10%
// load increments"). Colocated services typically top out around 40–60%
// of their solo maxima, as the paper observes.
func PairMaxFraction(a, b string) float64 {
	pairMu.Lock()
	defer pairMu.Unlock()
	key := [2]string{a, b}
	if v, ok := pairCache[key]; ok {
		return v
	}
	best := 0.1
	for f := 0.1; f <= 1.001; f += 0.1 {
		if pairFeasible(a, b, f) {
			best = f
		} else {
			break
		}
	}
	pairCache[key] = best
	return best
}

// pairFeasible runs a short static colocation at fraction f of each solo
// maximum and checks that both services hold ≥95% QoS guarantee.
func pairFeasible(a, b string, f float64) bool {
	srv := NewServer(9000, a, b)
	static := baselines.NewStatic(srv.ManagedCores(), 2)
	sum := Run(RunConfig{
		Server:       srv,
		Controller:   static,
		Patterns:     fixedLoads(f, a, b),
		Seconds:      90,
		SummaryFromS: 30,
	})
	return sum.QoSGuarantee[0] >= 0.95 && sum.QoSGuarantee[1] >= 0.95
}

// ServicePairs enumerates the NC2 Tailbench pairs of the colocation
// evaluation, in a stable order.
func ServicePairs() [][2]string {
	names := service.TailbenchNames()
	var out [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			out = append(out, [2]string{names[i], names[j]})
		}
	}
	return out
}
