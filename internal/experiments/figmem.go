package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/rng"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// FigMemResult reproduces the memory-complexity comparison of
// Sec. V-B1: a server with D action dimensions of N discrete actions
// each. Hipster's Q-table needs b·N^D entries; Twig's BDQ grows linearly
// in D·N; a flat DQN's output head grows as N^D.
type FigMemResult struct {
	Dims          int
	ActionsPerDim int
	Buckets       int

	HipsterEntries float64
	HipsterBytes   float64 // 8 bytes per entry
	TwigParams     int
	TwigBytes      int
	FlatDQNParams  int
	FlatDQNBytes   int
}

// FigMem computes the comparison for the paper's example (D = 3
// dimensions, N = 30 actions, 25 load buckets) using the real network
// constructors, not formulas alone.
func FigMem(dims, actionsPerDim, buckets int) FigMemResult {
	r := rng.New(1)
	dd := make([]int, dims)
	for i := range dd {
		dd[i] = actionsPerDim
	}
	spec := bdq.PaperAgent().Spec
	spec.StateDim, spec.Agents, spec.Dims = int(pmc.NumCounters), 1, dd
	net := bdq.NewNetwork(spec, r)
	flat := bdq.NewFlatDQN(int(pmc.NumCounters), dd, spec.SharedHidden, r.Rand)
	// The paper's Sec. II-B table-size formula is b·D^N (Hipster's
	// state-action table for D dimensions of N actions grows as D^N),
	// giving the 25·3³⁰ example of Sec. V-B1.
	entries := bdq.QTableEntries(buckets, actionsPerDim, dims)
	return FigMemResult{
		Dims:           dims,
		ActionsPerDim:  actionsPerDim,
		Buckets:        buckets,
		HipsterEntries: entries,
		HipsterBytes:   entries * 8,
		TwigParams:     net.NumParams(),
		TwigBytes:      net.MemoryBytes(),
		FlatDQNParams:  flat.NumParams(),
		FlatDQNBytes:   flat.MemoryBytes(),
	}
}

// String renders the comparison.
func (r FigMemResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory complexity (D=%d, N=%d, b=%d):\n", r.Dims, r.ActionsPerDim, r.Buckets)
	fmt.Fprintf(&b, "  Hipster Q-table : %.3g entries ≈ %.3g bytes\n", r.HipsterEntries, r.HipsterBytes)
	fmt.Fprintf(&b, "  Flat DQN        : %d params = %.2f MB\n", r.FlatDQNParams, float64(r.FlatDQNBytes)/(1<<20))
	fmt.Fprintf(&b, "  Twig BDQ        : %d params = %.2f MB (paper: under 5 MB)\n", r.TwigParams, float64(r.TwigBytes)/(1<<20))
	return b.String()
}
