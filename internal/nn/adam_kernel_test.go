package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// adamEdges are the values the kernel's guard and its reciprocal
// correction turn on, planted by adamAdversarial in every role: the two
// ends of the guard's range and one ulp either side of each, exact zeros
// of both signs, denormals, Inf and NaN (one such lane must take its
// vector, and only its vector, through the divider without disturbing
// the lanes beside it), and mantissas within 2⁻⁴⁰ of 2, where RN(x·y)
// is furthest from x/c and the first correction round earns its place.
var adamEdges = []float64{
	0x1p-900, math.Nextafter(0x1p-900, 0), math.Nextafter(0x1p-900, 1),
	0x1p900, math.Nextafter(0x1p900, 0), math.Nextafter(0x1p900, math.Inf(1)),
	0, math.Copysign(0, -1),
	5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 0x1p-1000,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
	math.Nextafter(2, 0), 2 - 0x1p-41, 2 - 0x1p-45, (2 - 0x1p-43) * 0x1p-300, (2 - 0x1p-50) * 0x1p300,
}

// adamAdversarial fills one element's worth of state per index with the
// cases a vector kernel could round differently from the scalar loop if
// it fused, reassociated or approximated anything: exact zeros in every
// role, zero and denormal second moments (the √ and the final divide at
// their extremes), negative gradients, magnitudes across twelve decades
// and — one element in eight, so most vectors keep three ordinary lanes
// — an adamEdges value of either sign in one or every role.
func adamAdversarial(n int, rng *rand.Rand) (value, grad, m, v []float64) {
	value, grad, m, v = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	mag := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) }
	edge := func() float64 {
		e := adamEdges[rng.Intn(len(adamEdges))]
		if rng.Intn(2) == 0 {
			e = -e
		}
		return e
	}
	for i := 0; i < n; i++ {
		value[i], grad[i], m[i], v[i] = mag(), mag(), mag(), math.Abs(mag())
		switch rng.Intn(16) {
		case 0:
			grad[i] = 0
		case 1:
			m[i], v[i] = 0, 0 // a parameter's first step
		case 2:
			v[i] = 5e-324 * float64(1+rng.Intn(1000)) // denormal
		case 3:
			grad[i], m[i], v[i] = 0, 0, 0 // 0/(√0+ε)
		case 4:
			grad[i] = math.Copysign(0, -1)
		case 5:
			grad[i], m[i] = math.Copysign(0, -1), math.Copysign(0, -1) // m′ = −0
		case 6:
			grad[i], m[i], v[i] = 0, edge(), math.Abs(edge())
		case 7:
			// β·(x/β) lands on the edge or an ulp beside it.
			grad[i], m[i], v[i] = 0, edge()/0.9, math.Abs(edge())/0.999
		case 8:
			[4][]float64{value, grad, m, v}[rng.Intn(4)][i] = edge()
		case 9:
			value[i], grad[i], m[i], v[i] = edge(), edge(), edge(), edge()
		}
	}
	return
}

// requireSliceBits is bitwise equality that lets two NaNs differ in
// payload: where two NaN operands meet, which one an instruction returns
// depends on operand order, which the compiler is free to choose for the
// scalar loop.
func requireSliceBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d]: got %x (%v) want %x (%v)", tag, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// requireAdamMatchesScalar runs one update through adamUpdate and the
// same one through the scalar loop and holds all four slices equal, and
// the finite adamUpdate reports to a scan of the values.
func requireAdamMatchesScalar(t *testing.T, tag string, value, grad, m, v []float64, k *adamConsts, zero bool) {
	t.Helper()
	wv, wg, wm, wvv := mat.Clone(value), mat.Clone(grad), mat.Clone(m), mat.Clone(v)
	finite := adamUpdate(value, grad, m, v, k, zero)
	adamScalar(wv, wg, wm, wvv, k, zero)
	requireSliceBits(t, tag+" value", value, wv)
	requireSliceBits(t, tag+" grad", grad, wg)
	requireSliceBits(t, tag+" m", m, wm)
	requireSliceBits(t, tag+" v", v, wvv)
	if want := scanFinite(wv); finite != want {
		t.Fatalf("%s: adamUpdate reports finite %t, a scan of the values %t", tag, finite, want)
	}
}

// scanFinite is the oracle of every Finite bit: a scan of row-major
// values.
func scanFinite(values []float64) bool {
	for _, x := range values {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// refParam is the row-major reference model of a Param: the values,
// gradient and moments as a tensor without panels holds them, stepped by
// the scalar loop alone.
type refParam struct {
	rows, cols  int
	value, grad []float64
	m, v        []float64
}

// newRefParam copies p — its values unpacked — into a reference model.
func newRefParam(p *Param) *refParam {
	r := &refParam{rows: p.Panels.K, cols: p.Panels.N, value: p.Panels.Unpack().Data}
	r.grad = make([]float64, len(r.value))
	r.m, r.v = make([]float64, len(r.value)), make([]float64, len(r.value))
	if p.Grad != nil {
		copy(r.grad, p.Grad.Data)
	}
	if p.m != nil {
		copy(r.m, p.m.Data)
		copy(r.v, p.v.Data)
	}
	return r
}

// step is the reference optimiser step: adamScalar over the row-major
// tensor.
func (r *refParam) step(k *adamConsts, zero bool) {
	adamScalar(r.value, r.grad, r.m, r.v, k, zero)
}

// requireParamMatchesRef holds p to the reference: its unpacked values,
// gradient and moments bit for bit, its panels' pad lanes +0, and its
// Finite bit what a scan of the reference values says.
func requireParamMatchesRef(t *testing.T, tag string, p *Param, r *refParam) {
	t.Helper()
	if p.Panels.K != r.rows || p.Panels.N != r.cols {
		t.Fatalf("%s: %dx%d panels for a %dx%d tensor", tag, p.Panels.K, p.Panels.N, r.rows, r.cols)
	}
	requireSliceBits(t, tag+" value", p.Panels.Unpack().Data, r.value)
	if p.Grad != nil {
		requireSliceBits(t, tag+" grad", p.Grad.Data, r.grad)
	}
	if p.m != nil {
		requireSliceBits(t, tag+" m", p.m.Data, r.m)
		requireSliceBits(t, tag+" v", p.v.Data, r.v)
	}
	held := make([]bool, len(p.Panels.Data))
	for t := 0; t < r.rows; t++ {
		for j := 0; j < r.cols; j++ {
			held[j/mat.PanelWidth*r.rows*mat.PanelWidth+t*mat.PanelWidth+j%mat.PanelWidth] = true
		}
	}
	for i, x := range p.Panels.Data {
		if !held[i] && math.Float64bits(x) != 0 {
			t.Fatalf("%s: pad lane %d of the panels holds %v", tag, i, x)
		}
	}
	if want := scanFinite(r.value); p.Panels.Finite != want {
		t.Fatalf("%s: Panels.Finite = %t, a scan of the reference values %t", tag, p.Panels.Finite, want)
	}
}

// adamOracleSteps are the bias corrections worth visiting: the first
// steps (c₂ = 0.001 at step 1 is the smallest divisor the defaults
// make), a few ordinary ones, and the windows in which 1 − βᵗ reaches
// 1 − 2⁻⁵³ and then exactly 1 — for β₁ around step 348, for β₂ around
// 36 700 and 37 400 — found by search as well, so the windows follow the
// arithmetic rather than this comment.
func adamOracleSteps() []int {
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100, 347, 348, 349, 10_000}
	for s := 36_700; s <= 36_800; s++ {
		steps = append(steps, s)
	}
	for _, beta := range []float64{0.9, 0.999} {
		first := 1
		for 1-math.Pow(beta, float64(first)) != 1 {
			first++
		}
		steps = append(steps, first-1, first, first+1)
	}
	return steps
}

// TestAdamKernelMatchesScalar holds the vector Adam kernel (with its
// scalar tail) to the scalar loop bit for bit — the loop divides, the
// kernel corrects a reciprocal, and this is the proof that they agree:
// every length from 0 to 67, adversarial state (adamAdversarial), the
// bias corrections of adamOracleSteps, with and without the fused
// gradient zeroing — and then through the optimiser's entry point,
// against a reference optimiser built from the scalar loop alone.
func TestAdamKernelMatchesScalar(t *testing.T) {
	if !haveKernel {
		t.Log("no AVX2+FMA (or force-disabled): the kernel is the scalar loop and the test compares it with itself")
	}
	rng := rand.New(rand.NewSource(5))
	for _, step := range adamOracleSteps() {
		opt := NewAdam(0.0025)
		opt.step = step
		k := opt.consts()
		if !k.reciprocal {
			t.Fatalf("step %d: the default βs give c₁ = %v, c₂ = %v, outside the reciprocal path's range", step, k.c1, k.c2)
		}
		for n := 0; n <= 67; n++ {
			for _, zero := range []bool{false, true} {
				value, grad, m, v := adamAdversarial(n, rng)
				requireAdamMatchesScalar(t, fmt.Sprintf("n=%d step=%d zero=%v", n, step, zero), value, grad, m, v, &k, zero)
			}
		}
	}

	// Every edge in every lane of an otherwise ordinary pair of vectors,
	// as m′ (and, unsigned, v′) to the last bit: the constants are set by
	// hand — g = 0 and β = 1 in the moment recurrences only, so m′ = m and
	// v′ = v, with the c of step 3.
	opt := NewAdam(0.0025)
	opt.step = 3
	k := opt.consts()
	k.b1, k.omb1, k.b2, k.omb2 = 1, 0, 1, 0
	for _, e := range adamEdges {
		for _, sign := range []float64{1, -1} {
			for lane := 0; lane < 8; lane++ {
				value, grad, m, v := make([]float64, 8), make([]float64, 8), make([]float64, 8), make([]float64, 8)
				for i := range value {
					value[i], grad[i], m[i], v[i] = rng.NormFloat64(), 0, rng.NormFloat64(), rng.Float64()
				}
				m[lane], v[lane] = sign*e, math.Abs(e)
				if lane%2 == 1 {
					v[lane] = 0.25 // the edge in m′ alone
				}
				requireAdamMatchesScalar(t, fmt.Sprintf("edge %v lane %d", sign*e, lane), value, grad, m, v, &k, false)
			}
		}
	}

	// The quotients with nothing after them to round an error away: lr = 1,
	// ε = 0, value = 0 and the other moment equal to its c, so the update
	// is −m′/c₁ itself in the first half of the lanes and −1/√(v′/c₂) in
	// the second, at volume, over random mantissas and every exponent the
	// guard admits and some it does not.
	x := func() float64 {
		return math.Ldexp(1+rng.Float64(), rng.Intn(1840)-920) * float64(1-2*rng.Intn(2))
	}
	for _, step := range []int{1, 2, 3, 5, 17, 100, 1000, 30_000} {
		opt.step = step
		k := opt.consts()
		k.b1, k.omb1, k.b2, k.omb2, k.lr, k.eps = 1, 0, 1, 0, 1, 0
		const n = 8192
		value, grad, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range m {
			if m[i], v[i] = x(), k.c2; i >= n/2 {
				m[i], v[i] = k.c1, math.Abs(x())
			}
		}
		requireAdamMatchesScalar(t, fmt.Sprintf("bare quotients, step %d", step), value, grad, m, v, &k, false)
	}

	// Through the optimiser's entry point: a network stepped by Adam
	// against the row-major reference stepped by the scalar loop alone,
	// over a full-panel and a ragged tensor and their biases.
	rng2 := rand.New(rand.NewSource(11))
	net := NewSequential(NewDense("l1", 5, 16, rng2), &ReLU{}, NewDense("l2", 16, 3, rng2))
	refs := make([]*refParam, len(net.Params()))
	for i, p := range net.Params() {
		refs[i] = newRefParam(p)
	}
	opt, optR := NewAdam(0.01), NewAdam(0.01)
	in, gout := mat.New(7, 5), mat.New(7, 3)
	for step := 0; step < 40; step++ {
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64()
		}
		for i := range gout.Data {
			gout.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		net.Forward(in, true)
		net.Backward(gout)
		for i, p := range net.Params() {
			copy(refs[i].grad, p.Grad.Data)
		}
		opt.StepAndZeroGrad(net.Params())
		optR.step++
		k := optR.consts()
		for i, p := range net.Params() {
			refs[i].step(&k, true)
			requireParamMatchesRef(t, fmt.Sprintf("step %d %s", step, p.Name), p, refs[i])
		}
	}
}

// TestAdamDegenerateBetasMatchScalar sets the exported β fields to what
// nothing stops a caller setting them to — 1 (c = 0: every element a
// division by zero), past 1 (c < 0), NaN, negative (c > 1), 0, and close
// enough to 1 that the first steps' c is under 2⁻¹⁰ — and requires two
// things of each: the step's constants say "divide" exactly when
// reciprocalExact does, so the kernel never corrects a reciprocal it has
// no proof for; and the update still equals the scalar loop bit for bit,
// whatever that loop makes of the βs.
func TestAdamDegenerateBetasMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		b1, b2     float64
		reciprocal bool // at step 1
	}{
		{0.9, 0.999, true},
		{0, 0, true}, // c = 1
		{0.5, 0.999, true},
		{1, 0.999, false},
		{0.9, 1, false},
		{1, 1, false},
		{1.5, 0.999, false},
		{0.9, 1.0005, false},
		{math.NaN(), 0.999, false},
		{0.9, math.NaN(), false},
		{-0.5, 0.999, false},    // c₁ = 1.5
		{0.9, -0.25, false},     // c₂ = 1.25
		{0.9, 0.9999, false},    // c₂ = 1e-4 < 2⁻¹⁰ until step 10
		{0.99995, 0.999, false}, // c₁ = 5e-5
		{math.Inf(1), 0.999, false},
		{0.9, math.Inf(-1), false},
	}
	for _, c := range cases {
		for _, step := range []int{1, 2, 3, 10, 11, 1000} {
			opt := NewAdam(0.0025)
			opt.Beta1, opt.Beta2 = c.b1, c.b2
			opt.step = step
			k := opt.consts()
			if want := reciprocalExact(k.c1) && reciprocalExact(k.c2); k.reciprocal != want {
				t.Fatalf("β₁=%v β₂=%v step %d: reciprocal = %v with c₁ = %v, c₂ = %v", c.b1, c.b2, step, k.reciprocal, k.c1, k.c2)
			}
			if step == 1 && k.reciprocal != c.reciprocal {
				t.Fatalf("β₁=%v β₂=%v: reciprocal = %v at step 1 (c₁ = %v, c₂ = %v), want %v", c.b1, c.b2, k.reciprocal, k.c1, k.c2, c.reciprocal)
			}
			for _, n := range []int{4, 8, 23, 64} {
				value, grad, m, v := adamAdversarial(n, rng)
				requireAdamMatchesScalar(t, fmt.Sprintf("β₁=%v β₂=%v step=%d n=%d", c.b1, c.b2, step, n), value, grad, m, v, &k, step%2 == 0)
			}
		}
	}
	for _, c := range []float64{0, math.Copysign(0, -1), -0.5, math.Nextafter(0x1p-10, 0), math.Nextafter(1, 2), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324} {
		if reciprocalExact(c) {
			t.Errorf("reciprocalExact(%v) = true", c)
		}
	}
	for _, c := range []float64{0x1p-10, 0.001, 0.1, 1 - 0x1p-53, 1} {
		if !reciprocalExact(c) {
			t.Errorf("reciprocalExact(%v) = false", c)
		}
	}
}

// FuzzAdamKernelMatchesScalar plants one element of raw bit patterns —
// value, gradient and both moments — in a lane of two ordinary vectors
// and a tail, at a fuzzed step, and holds the kernel to the scalar loop
// as TestAdamKernelMatchesScalar does. Then the same element goes through
// the step of tensors kept in panels — one the kernel takes whole, ragged
// ones whose last panel the scalar loop updates in place (Out % 8 ≠ 0)
// and one-row ones (biases) — each held to the row-major reference model
// stepped by adamScalar: values, moments, gradient and the Finite bit.
func FuzzAdamKernelMatchesScalar(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(1.5), bits(-0.25), bits(0.125), bits(3.0), uint32(1), int64(1))
	f.Add(bits(1), bits(0), bits(0x1p-900), bits(0x1p900), uint32(7), int64(2))
	f.Add(bits(-1), bits(math.Copysign(0, -1)), bits(math.Copysign(0, -1)), bits(0), uint32(348), int64(3))
	f.Add(bits(0), bits(0), bits(5e-324), bits(math.Nextafter(2, 0)), uint32(36_720), int64(4))
	f.Add(bits(2), bits(math.Inf(1)), bits(math.NaN()), bits(math.Inf(-1)), uint32(100_000), int64(5))
	f.Add(bits(math.Nextafter(2, 0)), bits(2-0x1p-41), bits(math.Nextafter(0x1p-900, 0)), bits(math.Nextafter(0x1p900, 0x1p901)), uint32(10_000), int64(6))
	f.Fuzz(func(t *testing.T, valueBits, gradBits, mBits, vBits uint64, step uint32, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 11
		value, grad, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range value {
			value[i], grad[i], m[i], v[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Float64()
		}
		lane := rng.Intn(n)
		value[lane], grad[lane] = math.Float64frombits(valueBits), math.Float64frombits(gradBits)
		m[lane], v[lane] = math.Float64frombits(mBits), math.Float64frombits(vBits)
		opt := NewAdam(0.0025)
		opt.step = 1 + int(step%200_000)
		k := opt.consts()
		zero := seed%2 == 0
		requireAdamMatchesScalar(t, fmt.Sprintf("step=%d lane=%d", opt.step, lane), value, grad, m, v, &k, zero)

		for _, shape := range [][2]int{{2, mat.PanelWidth}, {2, 5}, {3, 18}, {2, 9}, {4, 1}, {1, 11}, {1, 4}, {1, 16}} {
			rows, cols := shape[0], shape[1]
			vals := mat.New(rows, cols)
			p := NewParam("w", rows, cols)
			p.grad()
			p.m, p.v = mat.New(rows, cols), mat.New(rows, cols)
			for i := range vals.Data {
				vals.Data[i], p.Grad.Data[i] = rng.NormFloat64(), rng.NormFloat64()
				p.m.Data[i], p.v.Data[i] = rng.NormFloat64(), rng.Float64()
			}
			lane := rng.Intn(rows * cols)
			vals.Data[lane], p.Grad.Data[lane] = math.Float64frombits(valueBits), math.Float64frombits(gradBits)
			p.m.Data[lane], p.v.Data[lane] = math.Float64frombits(mBits), math.Float64frombits(vBits)
			p.Panels.RepackFrom(vals)
			ref := newRefParam(p)
			stepParam(p, &k, zero)
			ref.step(&k, zero)
			requireParamMatchesRef(t, fmt.Sprintf("step=%d %d×%d lane=%d", opt.step, rows, cols, lane), p, ref)
		}
	})
}

// TestAdamKernelWritesPack is the one-copy invariant at the layer: Adam
// reads and writes every weight in its panel slot — the kernel where Out
// fills whole panels, the scalar loop in place over a ragged last panel
// (Out 18, 9, 1) and a bias, and everything on the portable path — and
// after each step the unpacked weights, the moments and the Finite bit
// equal a row-major reference stepped by adamScalar, bit for bit, through
// both entry points.
func TestAdamKernelWritesPack(t *testing.T) {
	shapes := [][2]int{{22, 512}, {1, 8}, {3, 16}, {128, 24}, {128, 18}, {16, 9}, {128, 1}, {5, 4}, {7, 12}}
	for _, kernel := range []bool{haveKernel, false} {
		func() {
			defer func(was bool) { haveKernel = was }(haveKernel)
			haveKernel = kernel
			rng := rand.New(rand.NewSource(3))
			var ps []*Param
			for i, s := range shapes {
				ps = append(ps, NewDense(fmt.Sprintf("d%d", i), s[0], s[1], rand.New(rand.NewSource(rng.Int63()))).Params()...)
			}
			refs := make([]*refParam, len(ps))
			for i, p := range ps {
				p.grad()
				refs[i] = newRefParam(p)
			}
			opt, optR := NewAdam(0.0025), NewAdam(0.0025)
			for step := 0; step < 6; step++ {
				for i, p := range ps {
					for j := range p.Grad.Data {
						g := rng.NormFloat64()
						if rng.Intn(4) == 0 {
							g = 0
						}
						p.Grad.Data[j], refs[i].grad[j] = g, g
					}
				}
				// Alternate the two entry points: both step in place.
				zero := step%2 == 0
				if zero {
					opt.StepAndZeroGrad(ps)
				} else {
					opt.Step(ps)
				}
				optR.step++
				k := optR.consts()
				for i, p := range ps {
					refs[i].step(&k, zero)
					requireParamMatchesRef(t, fmt.Sprintf("kernel=%v step %d %s %dx%d", kernel, step, p.Name, p.Panels.K, p.Panels.N), p, refs[i])
				}
			}
		}()
	}
}
