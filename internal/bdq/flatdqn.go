package bdq

import (
	"math/rand"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
)

// FlatDQN is a vanilla deep Q-network whose single output head enumerates
// the full cross-product of all action dimensions. It exists for the
// ablation and memory-complexity experiments (Sec. V-B1): with D
// dimensions of N actions each its head has N^D outputs, versus N·D for
// the branching architecture.
type FlatDQN struct {
	Dims []int
	net  *nn.Sequential
	out  int
}

// NewFlatDQN builds a flat DQN with the given hidden widths.
func NewFlatDQN(stateDim int, dims []int, hidden []int, rng *rand.Rand) *FlatDQN {
	out := 1
	for _, d := range dims {
		out *= d
	}
	var layers []nn.Layer
	in := stateDim
	for i, h := range hidden {
		layers = append(layers, nn.NewDenseReLU(flatName("h", i), in, h, rng))
		in = h
	}
	layers = append(layers, nn.NewDense("out", in, out, rng))
	return &FlatDQN{Dims: append([]int(nil), dims...), net: nn.NewSequential(layers...), out: out}
}

func flatName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// NumParams returns the number of scalar learnable parameters.
func (f *FlatDQN) NumParams() int { return f.net.NumParams() }

// MemoryBytes estimates the float64 parameter footprint.
func (f *FlatDQN) MemoryBytes() int { return f.NumParams() * 8 }

// Forward evaluates the Q-values over the flattened action space.
func (f *FlatDQN) Forward(states *mat.Matrix, train bool) *mat.Matrix {
	return f.net.Forward(states, train)
}

// Params exposes the learnable parameters.
func (f *FlatDQN) Params() []*nn.Param { return f.net.Params() }

// Encode converts one action per dimension into a flattened index using
// mixed-radix positional encoding.
func (f *FlatDQN) Encode(actions []int) int {
	idx := 0
	for d, a := range actions {
		idx = idx*f.Dims[d] + a
	}
	return idx
}

// Decode inverts Encode.
func (f *FlatDQN) Decode(idx int) []int {
	actions := make([]int, len(f.Dims))
	for d := len(f.Dims) - 1; d >= 0; d-- {
		actions[d] = idx % f.Dims[d]
		idx /= f.Dims[d]
	}
	return actions
}

// QTableEntries returns the number of entries a tabular Q-learning agent
// (Hipster-style) needs for b state buckets, D action dimensions and N
// actions per dimension: b·N^D. Returned as float64 because the paper's
// example (25·3³⁰) overflows int ranges long before it fits in memory.
func QTableEntries(buckets, dims, actionsPerDim int) float64 {
	entries := float64(buckets)
	for i := 0; i < dims; i++ {
		entries *= float64(actionsPerDim)
	}
	return entries
}
