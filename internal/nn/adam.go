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
	k := a.consts()
	for _, p := range params {
		if p.m == nil {
			p.m = mat.New(p.Value.Rows, p.Value.Cols)
			p.v = mat.New(p.Value.Rows, p.Value.Cols)
		}
		stepParam(p, &k, zeroGrad)
	}
}

// adamConsts are the per-step constants of the element update, in the
// order the vector kernel reads them: β₁, 1−β₁, β₂, 1−β₂, the two bias
// corrections c₁ and c₂, the learning rate and ε; then what only the
// kernel reads — y₁ = RN(1/c₁) and y₂ = RN(1/c₂), divided once a step so
// that it can correct m′·y₁ and v′·y₂ into the quotients instead of
// dividing per element, and reciprocal, which says the correction is
// exact for both (reciprocalExact) and without which every vector goes
// through the divider.
type adamConsts struct {
	b1, omb1, b2, omb2, c1, c2, lr, eps float64

	y1, y2     float64
	reciprocal bool
}

// consts hoists the loop-invariant subexpressions of the current step
// (β constants, bias corrections), which changes no rounding. The
// exported β fields can hold anything — β = 1 makes c zero and every
// element a division by zero — and the arithmetic is what the scalar
// loop makes of it either way; what is decided here is only whether the
// kernel may take its reciprocal path.
func (a *Adam) consts() adamConsts {
	k := adamConsts{
		b1: a.Beta1, omb1: 1 - a.Beta1,
		b2: a.Beta2, omb2: 1 - a.Beta2,
		c1:  1 - math.Pow(a.Beta1, float64(a.step)),
		c2:  1 - math.Pow(a.Beta2, float64(a.step)),
		lr:  a.LR,
		eps: a.Epsilon,
	}
	k.y1, k.y2 = 1/k.c1, 1/k.c2
	k.reciprocal = reciprocalExact(k.c1) && reciprocalExact(k.c2)
	return k
}

// reciprocalExact is the per-step half of the kernel's guard: the
// reciprocal correction of x/c (adam_amd64.s) is proved for a divisor in
// [2⁻¹⁰, 1] — every bias correction of a β in [0, 0.999] from the first
// step on; c₂ = 0.001 at step 1 is the smallest the defaults make — so
// that with the per-vector range of x no product or residual leaves the
// normal range. NaN, zero, a negative c (β > 1) and anything past 1
// (β < 0) are out.
func reciprocalExact(c float64) bool { return c >= 0x1p-10 && c <= 1 }

// haveKernel says the vector kernel runs: the CPU has AVX2 and FMA and
// TWIG_DISABLE_AVX2 (mat's switch, the only one) is unset.
var haveKernel = mat.HaveFMA()

// stepParam applies one Adam step to p and leaves p's pack, if it has
// one, current, its Finite bit included: the kernel stores each updated
// vector to the panels as well where the tensor fills whole panels,
// testing what it stores for Inf and NaN (the asm walks the layout of
// mat.PackedB at mat.PanelWidth = 8; TestAdamKernelWritesPack holds the
// two together), and a ragged tensor or the portable path repacks
// behind the update.
func stepParam(p *Param, k *adamConsts, zeroGrad bool) {
	rows, cols := p.Value.Rows, p.Value.Cols
	if haveKernel && p.pack != nil && cols%mat.PanelWidth == 0 && rows*cols > 0 {
		pack := p.pack.Data[:rows*cols]
		p.pack.Finite = adamKernel(rows, cols, &p.Value.Data[0], &p.Grad.Data[0], &p.m.Data[0], &p.v.Data[0], &pack[0], k, zeroGrad)
		return
	}
	adamUpdate(p.Value.Data, p.Grad.Data, p.m.Data, p.v.Data, k, zeroGrad)
	if p.pack != nil {
		p.pack.RepackFrom(p.Value)
	}
}

// adamUpdate applies one Adam step to equal-length value/grad/moment
// slices, zeroing grad behind it when asked: the vector kernel over the
// multiple-of-four prefix where the CPU has it, the scalar loop over the
// rest. The two agree bit for bit (TestAdamKernelMatchesScalar), so how
// a tensor splits between them changes nothing.
func adamUpdate(value, grad, m, v []float64, k *adamConsts, zeroGrad bool) {
	n := 0
	if haveKernel {
		if n = len(grad) &^ 3; n > 0 {
			adamKernel(1, n, &value[0], &grad[0], &m[0], &v[0], nil, k, zeroGrad)
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
