// Package nn implements the small feed-forward neural-network machinery
// Twig needs: dense layers, ReLU, inverted dropout, mean-squared-error
// loss, Xavier/He initialisation, the Adam optimiser and
// snapshot/restore for target networks and transfer learning. It is
// CPU-only and uses only the standard library.
package nn

import "github.com/twig-sched/twig/internal/mat"

// Param is a learnable tensor together with its gradient accumulator and
// the optimiser state attached to it.
type Param struct {
	Name string

	// Panels holds the tensor's values — a Rows×Cols operand packed into
	// panels (mat.PackedB) — and is their only storage: the forward
	// product multiplies against it, g·Wᵀ transposes it, and the
	// optimiser, the checkpoint codec, initialisation and target syncs
	// read and write each element in its panel slot. A bias is a one-row
	// tensor, whose panels are its values in order.
	Panels *mat.PackedB

	// Grad accumulates the gradient, row-major. It is allocated by the
	// first backward pass that writes it (or by ZeroGrad), so a network
	// that only runs forward (a target network) carries none.
	Grad *mat.Matrix

	// Adam first/second moment estimates, row-major, allocated lazily by
	// the optimiser so that inference-only networks carry no extra state.
	m, v *mat.Matrix
}

// NewParam allocates a zeroed parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Panels: mat.NewPackedB(rows, cols)}
}

// Size returns the number of scalar values the tensor holds.
func (p *Param) Size() int { return p.Panels.K * p.Panels.N }

// grad returns the gradient accumulator, allocating it (+0 throughout)
// on first use.
func (p *Param) grad() *mat.Matrix {
	if p.Grad == nil {
		p.Grad = mat.New(p.Panels.K, p.Panels.N)
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient, allocating it if no backward
// pass has yet: a network about to train calls it to build its gradients
// ahead of the first step.
func (p *Param) ZeroGrad() {
	if p.Grad == nil {
		p.grad()
		return
	}
	p.Grad.Zero()
}

// CopyValueFrom copies src's value (not gradient or optimiser state):
// one copy of the panels and their Finite bit.
func (p *Param) CopyValueFrom(src *Param) { p.Panels.CopyFrom(src.Panels) }
