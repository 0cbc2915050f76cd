// Package nn implements the small feed-forward neural-network machinery
// Twig needs: dense layers, ReLU, inverted dropout, mean-squared-error
// loss, Xavier/He initialisation, the Adam optimiser, gradient clipping
// and snapshot/restore for target networks and transfer learning. It is
// CPU-only and uses only the standard library.
package nn

import "github.com/twig-sched/twig/internal/mat"

// Param is a learnable tensor together with its gradient accumulator and
// the optimiser state attached to it.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix

	// Adam first/second moment estimates, allocated lazily by the
	// optimiser so that inference-only networks carry no extra state.
	m, v *mat.Matrix

	// pack, when non-nil, is Value packed into panels (a Dense's W, see
	// Dense.RefreshPack). An optimiser step leaves it current; any other
	// writer of Value owes a RefreshPack.
	pack *mat.PackedB
}

// NewParam allocates a zeroed parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: mat.New(rows, cols),
		Grad:  mat.New(rows, cols),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// CopyValueFrom copies src's value (not gradient or optimiser state).
func (p *Param) CopyValueFrom(src *Param) { p.Value.CopyFrom(src.Value) }
