package nn

import (
	"math"

	"github.com/twig-sched/twig/internal/mat"
)

// Adam implements the Adam optimiser (Kingma & Ba, 2014) with the bias
// correction of the original paper. Twig uses a learning rate of 0.0025.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// MaxGradNorm, when positive, rescales the global gradient so its
	// L2 norm does not exceed this value before the update is applied.
	MaxGradNorm float64

	step int
}

// NewAdam returns an Adam optimiser with the given learning rate and the
// standard β₁=0.9, β₂=0.999, ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter and increments the
// internal timestep used for bias correction.
func (a *Adam) Step(params []*Param) { a.apply(params, false) }

// StepAndZeroGrad applies one Adam update and clears each parameter's
// gradient in the same pass, fusing the ZeroGrad that would otherwise
// precede the next backward pass. Gradients are write-only between the
// optimiser step and the next backward (checkpoints do not capture
// them), so step-then-zero is exactly equivalent to zero-before-reuse.
func (a *Adam) StepAndZeroGrad(params []*Param) { a.apply(params, true) }

// apply walks the parameters one tensor at a time through the shared
// element update.
func (a *Adam) apply(params []*Param, zeroGrad bool) {
	a.step++
	if a.MaxGradNorm > 0 {
		clipGlobalNorm(params, a.MaxGradNorm)
	}
	k := a.consts()
	for _, p := range params {
		if p.m == nil {
			p.m = mat.New(p.Value.Rows, p.Value.Cols)
			p.v = mat.New(p.Value.Rows, p.Value.Cols)
		}
		adamUpdate(p.Value.Data, p.Grad.Data, p.m.Data, p.v.Data, &k, zeroGrad)
	}
}

// adamConsts are the per-step constants of the element update, in the
// order the AVX2 kernel reads them: β₁, 1−β₁, β₂, 1−β₂, the two bias
// corrections, the learning rate and ε.
type adamConsts struct {
	b1, omb1, b2, omb2, c1, c2, lr, eps float64
}

// consts hoists the loop-invariant subexpressions of the current step
// (β constants, bias corrections), which changes no rounding.
func (a *Adam) consts() adamConsts {
	return adamConsts{
		b1: a.Beta1, omb1: 1 - a.Beta1,
		b2: a.Beta2, omb2: 1 - a.Beta2,
		c1:  1 - math.Pow(a.Beta1, float64(a.step)),
		c2:  1 - math.Pow(a.Beta2, float64(a.step)),
		lr:  a.LR,
		eps: a.Epsilon,
	}
}

// adamUpdate applies one Adam step to equal-length value/grad/moment
// slices, zeroing grad behind it when asked: the AVX2 kernel over the
// multiple-of-four prefix where the CPU has it, the scalar loop over the
// rest. The two agree bit for bit (TestAdamKernelMatchesScalar), so how
// a tensor splits between them changes nothing.
func adamUpdate(value, grad, m, v []float64, k *adamConsts, zeroGrad bool) {
	n := 0
	if mat.HaveAVX2() {
		if n = len(grad) &^ 3; n > 0 {
			adamStepAVX2(n, &value[0], &grad[0], &m[0], &v[0], k, zeroGrad)
		}
	}
	adamScalar(value[n:], grad[n:], m[n:], v[n:], k, zeroGrad)
}

// adamScalar is the element update as the original loop wrote it: the
// portable path, the tail of the vector one, and its oracle.
func adamScalar(value, grad, md, vd []float64, k *adamConsts, zeroGrad bool) {
	for i, g := range grad {
		m := k.b1*md[i] + k.omb1*g
		v := k.b2*vd[i] + k.omb2*g*g
		md[i] = m
		vd[i] = v
		value[i] -= k.lr * (m / k.c1) / (math.Sqrt(v/k.c2) + k.eps)
		if zeroGrad {
			grad[i] = 0
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// Reset clears the optimiser timestep (moment estimates are kept on the
// parameters and cleared by ResetMoments).
func (a *Adam) Reset() { a.step = 0 }

// ResetMoments clears the per-parameter moment estimates, e.g. after
// transfer learning re-initialises a layer.
func ResetMoments(params []*Param) {
	for _, p := range params {
		p.m = nil
		p.v = nil
	}
}

func clipGlobalNorm(params []*Param, maxNorm float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
}
