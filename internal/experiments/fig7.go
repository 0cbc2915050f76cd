package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
)

// Fig7Result reproduces Fig. 7: the QoS guarantee over time (learning
// curve) of Twig-S and Hipster on Masstree, bucketed into windows (the
// paper uses 500 s buckets over 10 000 s with ε annealed to 0.1 by
// 5000 s).
type Fig7Result struct {
	Service string
	BucketS int
	// Curves maps manager name to its per-bucket QoS guarantee.
	Curves map[string][]float64
	// CrossedAt80 maps manager to the first bucket index whose QoS
	// guarantee exceeds 80% (Twig should get there first).
	CrossedAt80 map[string]int
}

// Fig7 runs the learning-time comparison.
func Fig7(sc Scale, seed int64) Fig7Result {
	const svcName = "masstree"
	const lf = 0.5
	res := Fig7Result{
		Service:     svcName,
		BucketS:     newQoSBuckets(sc).width,
		Curves:      map[string][]float64{},
		CrossedAt80: map[string]int{},
	}
	managers := []string{"hipster", "twig-s"}
	curves := make([][]float64, len(managers))
	crossedAt := make([]int, len(managers))
	par.For(len(managers), func(mi int) {
		mgr := managers[mi]
		srv := NewServer(seed, svcName)
		qb := newQoSBuckets(sc)
		Run(RunConfig{
			Server:       srv,
			Controller:   newController(mgr, srv, sc, seed, svcName),
			Patterns:     fixedLoads(lf, svcName),
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
			Hook:         qb.hook,
		})
		curves[mi], crossedAt[mi] = qb.curve(0)
	})
	for mi, mgr := range managers {
		res.Curves[mgr] = curves[mi]
		res.CrossedAt80[mgr] = crossedAt[mi]
	}
	return res
}

// String renders the two learning curves.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.7 learning curves on %s (buckets of %d s)\n", r.Service, r.BucketS)
	for _, mgr := range []string{"hipster", "twig-s"} {
		fmt.Fprintf(&b, "  %-8s:", mgr)
		for _, v := range r.Curves[mgr] {
			fmt.Fprintf(&b, " %3.0f%%", v*100)
		}
		fmt.Fprintf(&b, "   (≥80%% at bucket %d)\n", r.CrossedAt80[mgr])
	}
	return b.String()
}
