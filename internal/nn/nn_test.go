package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, rng)
	x := mat.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := d.Forward(x, false)
	if y.Rows != 2 || y.Cols != 2 {
		t.Fatalf("Forward shape %dx%d, want 2x2", y.Rows, y.Cols)
	}
}

func TestDenseWrongInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	d.Forward(mat.New(1, 4), false)
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := mat.FromRows([][]float64{{-1, 0, 2}})
	y := r.Forward(x, true)
	want := []float64{0, 0, 2}
	for i, v := range y.Data {
		if v != want[i] {
			t.Fatalf("ReLU = %v", y.Data)
		}
	}
	g := r.Backward(mat.FromRows([][]float64{{5, 5, 5}}))
	wantG := []float64{0, 0, 5}
	for i, v := range g.Data {
		if v != wantG[i] {
			t.Fatalf("ReLU grad = %v", g.Data)
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(0.5, rng)
	x := mat.FromRows([][]float64{{1, 2, 3, 4}})
	y := d.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("dropout in eval mode must be identity")
		}
	}
}

func TestDropoutPreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(0.5, rng)
	const n = 20000
	x := mat.New(1, n)
	x.Fill(1)
	y := d.Forward(x, true)
	m := mat.Mean(y.Data)
	if math.Abs(m-1) > 0.05 {
		t.Fatalf("inverted dropout mean = %v, want ≈1", m)
	}
	// Backward must use the same mask.
	g := d.Backward(y)
	for i := range g.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 1.0")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

// TestGradientCheck verifies the analytic gradients of a
// Dense→ReLU→Dense network against central finite differences.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(
		NewDense("l1", 4, 6, rng),
		NewReLU(),
		NewDense("l2", 6, 3, rng),
	)
	x := mat.New(5, 4)
	target := mat.New(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}

	lossAt := func() float64 {
		pred := net.Forward(x, false)
		l, _ := MSE(pred, target)
		return l
	}

	net.ZeroGrad()
	pred := net.Forward(x, false)
	_, grad := MSE(pred, target)
	net.Backward(grad)

	const eps = 1e-5
	for _, p := range net.Params() {
		for i := 0; i < len(p.Value.Data); i += 7 { // sample every 7th weight
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lPlus := lossAt()
			p.Value.Data[i] = orig - eps
			lMinus := lossAt()
			p.Value.Data[i] = orig
			numeric := (lPlus - lMinus) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > 1e-6*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestAdamFitsLinearFunction ensures the optimiser actually minimises:
// a 1-layer net must recover y = 2x + 1.
func TestAdamFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewSequential(NewDense("lin", 1, 1, rng))
	opt := NewAdam(0.05)
	x := mat.New(32, 1)
	y := mat.New(32, 1)
	for epoch := 0; epoch < 400; epoch++ {
		for i := 0; i < 32; i++ {
			v := rng.Float64()*4 - 2
			x.Set(i, 0, v)
			y.Set(i, 0, 2*v+1)
		}
		net.ZeroGrad()
		pred := net.Forward(x, true)
		_, grad := MSE(pred, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	w := net.Params()[0].Value.At(0, 0)
	b := net.Params()[1].Value.At(0, 0)
	if math.Abs(w-2) > 0.05 || math.Abs(b-1) > 0.05 {
		t.Fatalf("fit w=%v b=%v, want 2, 1", w, b)
	}
	if opt.StepCount() != 400 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestGradClipping(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.Grad.Data[0] = 30
	p.Grad.Data[1] = 40 // norm 50
	clipGlobalNorm([]*Param{p}, 5)
	norm := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("clipped norm = %v, want 5", norm)
	}
	// Below the cap: untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 1, 1
	clipGlobalNorm([]*Param{p}, 5)
	if p.Grad.Data[0] != 1 {
		t.Fatal("clip modified small gradient")
	}
}

func TestWeightedMSE(t *testing.T) {
	pred := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	target := mat.FromRows([][]float64{{0, 2}, {3, 2}})
	loss, grad, absErr := WeightedMSE(pred, target, []float64{1, 0.5})
	if absErr[0] != 0.5 || absErr[1] != 1 {
		t.Fatalf("absErr = %v", absErr)
	}
	// row0: d=(1,0) w=1 → ½·1 ; row1: d=(0,2) w=0.5 → ½·0.5·4=1 ; /4
	if math.Abs(loss-(0.5+1)/4) > 1e-12 {
		t.Fatalf("loss = %v", loss)
	}
	if grad.At(0, 0) != 0.25 || grad.At(1, 1) != 0.25 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestTargetNetworkSync(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	online := NewSequential(NewDense("a", 2, 3, rng), NewReLU(), NewDense("b", 3, 1, rng))
	target := NewSequential(NewDense("a", 2, 3, rng), NewReLU(), NewDense("b", 3, 1, rng))
	target.CopyValuesFrom(online)
	x := mat.FromRows([][]float64{{0.5, -0.5}})
	y1 := online.Forward(x, false)
	y2 := target.Forward(x, false)
	if math.Abs(y1.At(0, 0)-y2.At(0, 0)) > 1e-12 {
		t.Fatal("target net differs after sync")
	}
	if online.NumParams() != 2*3+3+3*1+1 {
		t.Fatalf("NumParams = %d", online.NumParams())
	}
}

func TestResetMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewSequential(NewDense("a", 2, 2, rng))
	opt := NewAdam(0.01)
	net.ZeroGrad()
	pred := net.Forward(mat.New(1, 2), true)
	_, grad := MSE(pred, mat.New(1, 2))
	net.Backward(grad)
	opt.Step(net.Params())
	if net.Params()[0].m == nil {
		t.Fatal("moments not allocated")
	}
	ResetMoments(net.Params())
	if net.Params()[0].m != nil {
		t.Fatal("ResetMoments did not clear state")
	}
}
