package nn

import "github.com/twig-sched/twig/internal/mat"

// Sequential chains layers so that the output of one feeds the next. It
// is itself a Layer, so sub-networks (the BDQ shared trunk and branches)
// compose naturally.
type Sequential struct {
	Layers []Layer

	// live[i] is the live set of layer i's output, which layer i makes and
	// layer i+1 reads (Dense.ForwardLive); the last layer's is the
	// caller's.
	live []mat.Live
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// liveLayer is a layer that takes its input's live set and makes its
// output's (Dense.ForwardLive).
type liveLayer interface {
	ForwardLive(x *mat.Matrix, xl, yl *mat.Live, train bool) *mat.Matrix
}

// Forward runs the batch through every layer in order.
func (s *Sequential) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	return s.ForwardLive(x, nil, nil, train)
}

// ForwardLive is Forward with live sets handed along the chain: xl is x's
// (nil: the first layer scans), each layer makes its output's set for
// the next, and yl, when non-nil, becomes the last output's. A layer that
// makes none leaves the next to scan its input.
func (s *Sequential) ForwardLive(x *mat.Matrix, xl, yl *mat.Live, train bool) *mat.Matrix {
	if len(s.live) != len(s.Layers) {
		s.live = make([]mat.Live, len(s.Layers))
	}
	for i, l := range s.Layers {
		out := yl
		if i < len(s.Layers)-1 {
			out = &s.live[i]
		}
		ll, ok := l.(liveLayer)
		if !ok {
			x, xl = l.Forward(x, train), nil
			continue
		}
		x, xl = ll.ForwardLive(x, xl, out, train), out
	}
	if xl == nil && yl != nil {
		yl.Reset()
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

// BackwardScaled is Backward of scale·gradOut. A Dense on top applies the
// scale in its sweep over gradOut (Dense.BackwardPending), which stays as
// it is; any other layer gets gradOut scaled in place first. Either way
// every element is gradOut's times scale, one rounding, as a Scale pass
// before Backward makes it.
func (s *Sequential) BackwardScaled(gradOut *mat.Matrix, scale float64) *mat.Matrix {
	top := len(s.Layers) - 1
	if d, ok := s.Layers[top].(*Dense); ok {
		gradOut = d.BackwardPending(gradOut, mat.Pending{Scale: scale}, nil)
	} else {
		gradOut.Scale(scale)
		gradOut = s.Layers[top].Backward(gradOut)
	}
	for i := top - 1; i >= 0; i-- {
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

// SetOptimizer makes opt the optimiser of every Dense in the network:
// from then on each Backward steps the network's parameters.
func (s *Sequential) SetOptimizer(opt Optimizer) {
	for _, l := range s.Layers {
		if d, ok := l.(*Dense); ok {
			d.SetOptimizer(opt)
		}
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
		n += p.Size()
	}
	return n
}
