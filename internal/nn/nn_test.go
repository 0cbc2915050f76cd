package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// unpack returns the operand pb holds as a new row-major matrix.
func unpack(pb *mat.PackedB) *mat.Matrix {
	m := mat.New(pb.K, pb.N)
	pb.UnpackInto(m)
	return m
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, rng)
	x := mat.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
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
	r := &ReLU{}
	x := mat.FromSlice(1, 3, []float64{-1, 0, 2})
	y := r.Forward(x, true)
	want := []float64{0, 0, 2}
	for i, v := range y.Data {
		if v != want[i] {
			t.Fatalf("ReLU = %v", y.Data)
		}
	}
	g := r.Backward(mat.FromSlice(1, 3, []float64{5, 5, 5}))
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
	x := mat.FromSlice(1, 4, []float64{1, 2, 3, 4})
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
		&ReLU{},
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

	net.SetOptimizer(accumulate{})
	zeroGrads(net.Params())
	pred := net.Forward(x, false)
	_, grad := MSE(pred, target)
	net.Backward(grad)

	const eps = 1e-5
	for _, p := range net.Params() {
		vals := unpack(p.Panels)
		set := func(i int, v float64) { vals.Data[i] = v; p.Panels.RepackFrom(vals) }
		for i := 0; i < p.Size(); i += 7 { // sample every 7th weight
			orig := vals.Data[i]
			set(i, orig+eps)
			lPlus := lossAt()
			set(i, orig-eps)
			lMinus := lossAt()
			set(i, orig)
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
	net.SetOptimizer(opt)
	x := mat.New(32, 1)
	y := mat.New(32, 1)
	for epoch := 0; epoch < 400; epoch++ {
		for i := 0; i < 32; i++ {
			v := rng.Float64()*4 - 2
			x.Set(i, 0, v)
			y.Set(i, 0, 2*v+1)
		}
		pred := net.Forward(x, true)
		_, grad := MSE(pred, y)
		opt.Open()
		net.Backward(grad)
	}
	w := net.Params()[0].Panels.At(0, 0)
	b := net.Params()[1].Panels.At(0, 0)
	if math.Abs(w-2) > 0.05 || math.Abs(b-1) > 0.05 {
		t.Fatalf("fit w=%v b=%v, want 2, 1", w, b)
	}
	if opt.step != 400 {
		t.Fatalf("step = %d", opt.step)
	}
}

func TestTargetNetworkSync(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	online := NewSequential(NewDense("a", 2, 3, rng), &ReLU{}, NewDense("b", 3, 1, rng))
	target := NewSequential(NewDense("a", 2, 3, rng), &ReLU{}, NewDense("b", 3, 1, rng))
	target.CopyValuesFrom(online)
	x := mat.FromSlice(1, 2, []float64{0.5, -0.5})
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
	net.SetOptimizer(opt)
	pred := net.Forward(mat.New(1, 2), true)
	_, grad := MSE(pred, mat.New(1, 2))
	opt.Open()
	net.Backward(grad)
	if net.Params()[0].m == nil {
		t.Fatal("moments not allocated")
	}
	ResetMoments(net.Params())
	if net.Params()[0].m != nil {
		t.Fatal("ResetMoments did not clear state")
	}
}

// accumulate is the optimiser of the tests that read gradients: it adds
// each gradient a backward pass hands over to the parameter's Grad — what
// the backward pass did itself before it stepped the optimiser — and
// passes it on to next, when there is one. Grad starts at +0 (zeroGrads).
type accumulate struct{ next Optimizer }

func (a accumulate) StepParam(p *Param, g []float64) {
	mat.Axpy(1, g, p.grad().Data)
	if a.next != nil {
		a.next.StepParam(p, g)
	}
}

// zeroGrads clears every parameter's Grad, allocating it on first use.
func zeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// TestBackwardStepsEveryLayerOnce: a network's Backward steps each
// parameter exactly once, through the optimiser its owner set, and a
// Dense without one refuses to run backward rather than drop a step.
func TestBackwardStepsEveryLayerOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewSequential(NewDenseReLU("a", 3, 9, rng), NewDense("b", 9, 2, rng))
	x, g := mat.New(6, 3), mat.New(6, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g.Fill(0.5)
	count := countSteps{}
	net.SetOptimizer(count)
	net.Forward(x, true)
	net.Backward(g)
	for _, p := range net.Params() {
		if count[p] != 1 {
			t.Fatalf("%s stepped %d times in one Backward, want 1", p.Name, count[p])
		}
	}

	bare := NewDense("c", 3, 2, rng)
	bare.Forward(x, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward of a Dense with no optimiser did not panic")
		}
	}()
	bare.Backward(g)
}

type countSteps map[*Param]int

func (c countSteps) StepParam(p *Param, g []float64) {
	if len(g) != p.Size() {
		panic("gradient of the wrong length")
	}
	c[p]++
}
