package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/par"
)

// ExtensionCATResult evaluates the cache-partitioning extension: the
// paper's memory-complexity example anticipates a third action dimension
// (Intel CAT way allocation) that its production servers could not
// enable. Here Twig-C manages Moses + Xapian — whose combined LLC
// footprints (34 + 20 MB) overflow the 45 MB cache — with and without
// the cache branch.
type ExtensionCATResult struct {
	// Without and With are the two-service QoS guarantees and average
	// power without and with CAT actions.
	WithoutQoS [2]float64
	WithQoS    [2]float64
	WithoutW   float64
	WithW      float64
}

// ExtensionCAT runs the comparison, without (cell 0) and with (cell 1)
// the cache branch.
func ExtensionCAT(sc Scale, seed int64) ExtensionCATResult {
	var sums [2]Summary
	par.For(len(sums), func(i int) {
		sums[i] = runTwigVariant(sc, seed, []string{"moses", "xapian"}, 0.6, func(c *core.Config) { c.ManageCache = i == 1 })
	})
	without, with := sums[0], sums[1]
	return ExtensionCATResult{
		WithoutQoS: [2]float64{without.QoSGuarantee[0], without.QoSGuarantee[1]},
		WithoutW:   without.AvgPowerW,
		WithQoS:    [2]float64{with.QoSGuarantee[0], with.QoSGuarantee[1]},
		WithW:      with.AvgPowerW,
	}
}

// String renders the comparison.
func (r ExtensionCATResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: Twig-C with a third (Intel CAT) action branch, moses+xapian\n")
	fmt.Fprintf(&b, "  without CAT: QoS [%.1f%% %.1f%%], power %.1f W\n",
		r.WithoutQoS[0]*100, r.WithoutQoS[1]*100, r.WithoutW)
	fmt.Fprintf(&b, "  with CAT   : QoS [%.1f%% %.1f%%], power %.1f W\n",
		r.WithQoS[0]*100, r.WithQoS[1]*100, r.WithW)
	return b.String()
}
