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
			p.m = mat.New(p.Panels.K, p.Panels.N)
			p.v = mat.New(p.Panels.K, p.Panels.N)
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

// stepParam applies one Adam step to p, reading and writing each value
// in its panel slot (mat.PackedB) against the row-major gradient and
// moments, and leaves p.Panels.Finite what a scan would say. The kernel
// takes the panels the tensor fills whole, testing what it stores for
// Inf and NaN (the asm walks the layout of mat.PackedB at mat.PanelWidth
// = 8; TestAdamKernelMatchesScalar holds the two together); the scalar
// loop takes a ragged last panel in place, one row's run at a time, and
// on the portable path every panel. A one-row tensor (a bias) lies in its
// panels as it does row-major and goes through adamUpdate whole. A tensor
// no backward pass has reached steps with a zero gradient.
func stepParam(p *Param, k *adamConsts, zeroGrad bool) {
	w := p.Panels
	rows, cols := w.K, w.N
	g, md, vd := p.grad().Data, p.m.Data, p.v.Data
	if rows == 1 {
		w.Finite = adamUpdate(w.Data[:cols], g, md, vd, k, zeroGrad)
		return
	}
	full, finite := 0, true // the columns the kernel took, and what it stored
	if haveKernel && rows > 0 {
		if full = cols &^ (mat.PanelWidth - 1); full > 0 {
			finite = adamKernel(rows, full, cols, &g[0], &md[0], &vd[0], &w.Data[0], k, zeroGrad)
		}
	}
	for j0 := full; j0 < cols; j0 += mat.PanelWidth {
		n := min(cols-j0, mat.PanelWidth)
		panel := w.Data[j0*rows:] // panel j0/8 starts (j0/8)·rows·8 in
		for t := 0; t < rows; t++ {
			run, e := panel[t*mat.PanelWidth:t*mat.PanelWidth+n], t*cols+j0
			adamScalar(run, g[e:e+n], md[e:e+n], vd[e:e+n], k, zeroGrad)
			finite = finite && mat.AllFinite(run)
		}
	}
	w.Finite = finite
}

// adamUpdate applies one Adam step to equal-length value/grad/moment
// slices, zeroing grad behind it when asked, and reports whether every
// value it stored is finite: the vector kernel over the multiple-of-four
// prefix where the CPU has it, the scalar loop over the rest. The two
// agree bit for bit (TestAdamKernelMatchesScalar), so how a tensor splits
// between them changes nothing.
func adamUpdate(value, grad, m, v []float64, k *adamConsts, zeroGrad bool) (finite bool) {
	n, finite := 0, true
	if haveKernel {
		if n = len(grad) &^ 3; n > 0 {
			// One row: the kernel's panel walk is the slice in order.
			finite = adamKernel(1, n, n, &grad[0], &m[0], &v[0], &value[0], k, zeroGrad)
		}
	}
	adamScalar(value[n:], grad[n:], m[n:], v[n:], k, zeroGrad)
	return finite && mat.AllFinite(value[n:])
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
