package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
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

// ExtensionCAT runs the comparison.
func ExtensionCAT(sc Scale, seed int64) ExtensionCATResult {
	run := func(manage bool) ([]float64, float64) {
		sum := runTwigVariant(sc, seed, []string{"moses", "xapian"}, 0.6, func(c *core.Config) { c.ManageCache = manage })
		return sum.QoSGuarantee, sum.AvgPowerW
	}
	var res ExtensionCATResult
	q, w := run(false)
	res.WithoutQoS = [2]float64{q[0], q[1]}
	res.WithoutW = w
	q, w = run(true)
	res.WithQoS = [2]float64{q[0], q[1]}
	res.WithW = w
	return res
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
