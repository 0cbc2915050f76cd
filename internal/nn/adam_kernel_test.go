package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// adamAdversarial fills one element's worth of state per index with the
// cases a vector kernel could round differently from the scalar loop if
// it fused, reassociated or approximated anything: exact zeros in every
// role, zero and denormal second moments (the √ and the final divide at
// their extremes), negative gradients, and magnitudes across twelve
// decades.
func adamAdversarial(n int, rng *rand.Rand) (value, grad, m, v []float64) {
	value, grad, m, v = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	mag := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) }
	for i := 0; i < n; i++ {
		value[i], grad[i], m[i], v[i] = mag(), mag(), mag(), math.Abs(mag())
		switch rng.Intn(8) {
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
		}
	}
	return
}

func requireSliceBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %x (%v) want %x (%v)", tag, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAdamKernelMatchesScalar holds the AVX2 Adam kernel (with its
// scalar tail) to the scalar loop bit for bit: every length from 0 to
// 67, adversarial state, bias corrections from the first step to the
// ten-thousandth, with and without the fused gradient zeroing — and then
// through the optimiser's entry point, with and without global-norm
// clipping, against a reference optimiser built from the scalar loop
// alone.
func TestAdamKernelMatchesScalar(t *testing.T) {
	if !mat.HaveAVX2() {
		t.Log("no AVX2 (or force-disabled): the kernel is the scalar loop and the test compares it with itself")
	}
	rng := rand.New(rand.NewSource(5))
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100, 10_000}
	for n := 0; n <= 67; n++ {
		for _, step := range steps {
			for _, zero := range []bool{false, true} {
				opt := NewAdam(0.0025)
				opt.step = step
				k := opt.consts()
				value, grad, m, v := adamAdversarial(n, rng)
				wv, wg, wm, wvv := mat.Clone(value), mat.Clone(grad), mat.Clone(m), mat.Clone(v)
				adamUpdate(value, grad, m, v, &k, zero)
				adamScalar(wv, wg, wm, wvv, &k, zero)
				tag := fmt.Sprintf("n=%d step=%d zero=%v ", n, step, zero)
				requireSliceBits(t, tag+"value", value, wv)
				requireSliceBits(t, tag+"grad", grad, wg)
				requireSliceBits(t, tag+"m", m, wm)
				requireSliceBits(t, tag+"v", v, wvv)
			}
		}
	}

	build := func() *Sequential {
		rng := rand.New(rand.NewSource(11))
		return NewSequential(NewDense("l1", 5, 16, rng), NewReLU(), NewDense("l2", 16, 3, rng))
	}
	for _, maxNorm := range []float64{0, 0.25} {
		net, ref := build(), build()
		opt, optR := NewAdam(0.01), NewAdam(0.01)
		opt.MaxGradNorm = maxNorm
		x, gout := mat.New(7, 5), mat.New(7, 3)
		for step := 0; step < 40; step++ {
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for i := range gout.Data {
				gout.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			for _, n := range []*Sequential{net, ref} {
				n.Forward(x, true)
				n.Backward(gout)
			}
			opt.StepAndZeroGrad(net.Params())
			// The reference step: clip, then the scalar loop per tensor.
			optR.step++
			if maxNorm > 0 {
				clipGlobalNorm(ref.Params(), maxNorm)
			}
			k := optR.consts()
			for _, p := range ref.Params() {
				if p.m == nil {
					p.m = mat.New(p.Value.Rows, p.Value.Cols)
					p.v = mat.New(p.Value.Rows, p.Value.Cols)
				}
				adamScalar(p.Value.Data, p.Grad.Data, p.m.Data, p.v.Data, &k, true)
			}
			for i, rp := range ref.Params() {
				got := net.Params()[i]
				tag := fmt.Sprintf("maxNorm=%v step %d %s ", maxNorm, step, rp.Name)
				requireSliceBits(t, tag+"value", got.Value.Data, rp.Value.Data)
				requireSliceBits(t, tag+"grad", got.Grad.Data, rp.Grad.Data)
				requireSliceBits(t, tag+"m", got.m.Data, rp.m.Data)
				requireSliceBits(t, tag+"v", got.v.Data, rp.v.Data)
			}
		}
	}
}
