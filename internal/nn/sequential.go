package nn

import "github.com/twig-sched/twig/internal/mat"

// Sequential chains layers so that the output of one feeds the next. It
// is itself a Layer, so sub-networks (the BDQ shared trunk and branches)
// compose naturally.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the batch through every layer in order.
func (s *Sequential) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse
// order, returning the gradient with respect to the network input (nil
// when the first layer is a Dense with NoInputGrad set).
func (s *Sequential) Backward(gradOut *mat.Matrix) *mat.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears the gradients of every parameter in the network.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// CopyValuesFrom copies parameter values from src into s. Both networks
// must have identical architectures (same parameter shapes in the same
// order). Used to synchronise target networks.
func (s *Sequential) CopyValuesFrom(src *Sequential) {
	dst := s.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic("nn: CopyValuesFrom parameter count mismatch")
	}
	for i := range dst {
		dst[i].CopyValueFrom(from[i])
	}
}

// NumParams returns the total number of scalar learnable parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.Value.Data)
	}
	return n
}
