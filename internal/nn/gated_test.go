package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/rng"
)

// The live × live backward (DESIGN.md, "The training step and its
// kernel tiers"): a Dense that declares
// GatedInput computes no input gradient for a unit that is ±0 across the
// minibatch, and every gradient that reaches a parameter is the bit it
// was without the declaration — because the stack below masks that
// column to ±0 anyway. What the declaration may not be is inferred.

// buildGatedStack is the paper's trunk and one branch as a Sequential:
// 22 → 512 → 256 → 128 → 18 with dropout after the first two, the first
// layer reading data. gated declares what bdq.NewNetwork declares.
func buildGatedStack(seed int64, gated bool) *Sequential {
	r := rng.New(seed)
	l0 := NewDenseReLU("shared0", 22, 512, r.Rand)
	l1 := NewDenseReLU("shared1", 512, 256, r.Rand)
	l2 := NewDenseReLU("adv0.h", 256, 128, r.Rand)
	l3 := NewDense("adv0.out0", 128, 18, r.Rand)
	l0.NoInputGrad = true
	l1.GatedInput, l2.GatedInput, l3.GatedInput = gated, gated, gated
	return NewSequential(l0, NewDropout(0.5, r), l1, NewDropout(0.5, r), l2, l3)
}

// TestGatedBackwardBitEqualsUngated trains the stack with and without
// the declaration on the same seeded minibatches — with no unit dead,
// with what He initialisation and dropout leave dead (about 40 %), and
// with every unit of the first layer dead — and requires every dW, db,
// Adam moment and stepped weight equal in every bit, on every tier.
func TestGatedBackwardBitEqualsUngated(t *testing.T) {
	tiertest.EachLower(t)
	for _, mode := range []struct {
		name string
		// prep rewrites the hidden layers' parameters: first is the layer
		// that reads the data.
		prep     func(d *Dense, first bool)
		wantDead bool
	}{
		{"none dead", func(d *Dense, first bool) {
			// Every unit fires for every sample: a large bias over N(0,1)
			// data, then non-negative weights over positive activations.
			for i := range d.bias() {
				d.bias()[i] += 50
			}
			for i, w := range d.W.Panels.Data {
				if !first {
					d.W.Panels.Data[i] = math.Abs(w)
				}
			}
		}, false},
		{"natural", func(*Dense, bool) {}, true},
		{"all dead", func(d *Dense, first bool) {
			for i := range d.bias() {
				if first {
					d.bias()[i] = -1e6
				}
			}
		}, true},
	} {
		gated, plain := buildGatedStack(11, true), buildGatedStack(11, false)
		for _, net := range []*Sequential{gated, plain} {
			for i, l := range net.Layers {
				if d, ok := l.(*Dense); ok && d.FuseReLU {
					mode.prep(d, i == 0)
				}
			}
		}
		optG, optP := NewAdam(0.0025), NewAdam(0.0025)
		gated.SetOptimizer(accumulate{optG})
		plain.SetOptimizer(accumulate{optP})
		rngG, rngP := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		xG, yG := mat.New(64, 22), mat.New(64, 18)
		xP, yP := mat.New(64, 22), mat.New(64, 18)
		sawDead := false
		for step := 0; step < 4; step++ {
			zeroGrads(gated.Params())
			zeroGrads(plain.Params())
			trainBatch(gated, optG, rngG, xG, yG)
			trainBatch(plain, optP, rngP, xP, yP)
			for i, pg := range gated.Params() {
				pp := plain.Params()[i]
				for j, g := range pg.Grad.Data {
					if math.Float64bits(g) != math.Float64bits(pp.Grad.Data[j]) {
						t.Fatalf("%s, step %d: %s grad[%d] gated %x, ungated %x", mode.name, step, pg.Name, j,
							math.Float64bits(g), math.Float64bits(pp.Grad.Data[j]))
					}
				}
			}
			for _, l := range gated.Layers {
				if d, ok := l.(*Dense); ok && d.GatedInput {
					live, _ := d.LiveInputs()
					sawDead = sawDead || live < d.In
				}
			}
			requireParamsBitEqual(t, mode.name, gated.Params(), plain.Params())
		}
		if sawDead != mode.wantDead {
			t.Fatalf("%s: a gated layer saw a dead input: %t", mode.name, sawDead)
		}
	}
}

// TestGatingIsDeclaredNotInferred: an input feature that happens to be
// zero in every row of a minibatch still has a gradient. A Dense without
// GatedInput returns it — checked against finite differences — and only
// the declaration replaces it by +0.
func TestGatingIsDeclaredNotInferred(t *testing.T) {
	const batch, in, out, zeroCol = 16, 12, 10, 3
	rng := rand.New(rand.NewSource(8))
	d := NewDense("l", in, out, rng)
	d.SetOptimizer(accumulate{}) // W stays as it is for the finite differences
	x, r := mat.New(batch, in), mat.New(batch, out)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < batch; i++ {
		x.Set(i, zeroCol, 0)
	}
	loss := func() float64 { // Σ y ⊙ r, whose gradient with respect to y is r
		var s float64
		for i, v := range d.Forward(x, true).Data {
			s += v * r.Data[i]
		}
		return s
	}
	loss()
	gradIn := d.Backward(r).Clone()
	const eps = 1e-6
	for i := 0; i < batch; i++ {
		x.Set(i, zeroCol, eps)
		plus := loss()
		x.Set(i, zeroCol, -eps)
		minus := loss()
		x.Set(i, zeroCol, 0)
		numeric, analytic := (plus-minus)/(2*eps), gradIn.At(i, zeroCol)
		if analytic == 0 || math.Abs(numeric-analytic) > 1e-6*(1+math.Abs(numeric)) {
			t.Fatalf("row %d: input gradient of the all-zero column is %v, finite differences say %v", i, analytic, numeric)
		}
	}

	d.GatedInput = true
	loss()
	gradIn = d.Backward(r)
	for i := 0; i < batch; i++ {
		if v := gradIn.At(i, zeroCol); math.Float64bits(v) != 0 {
			t.Fatalf("row %d: a gated dead column reads %v, want +0", i, v)
		}
		if gradIn.At(i, zeroCol+1) == 0 {
			t.Fatalf("row %d: a live column was gated", i)
		}
	}
}

// TestBackwardAccIsBackwardThenAdd: the accumulating backward leaves in
// the sum exactly what adding Backward's result to it would, −0 entries
// included.
func TestBackwardAccIsBackwardThenAdd(t *testing.T) {
	for _, gated := range []bool{false, true} {
		rng := rand.New(rand.NewSource(13))
		d := NewDenseReLU("l", 24, 16, rng)
		d.GatedInput = gated
		d.SetOptimizer(accumulate{}) // both backward passes read the same W
		x, g := mat.New(32, 24), mat.New(32, 16)
		for i := range x.Data {
			x.Data[i] = math.Max(0, rng.NormFloat64()) // what a ReLU hands on
		}
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < x.Rows; i++ {
			x.Set(i, 5, 0)
			x.Set(i, 17, 0)
		}
		sum := mat.New(32, 24)
		for i := range sum.Data {
			sum.Data[i] = [...]float64{math.Copysign(0, -1), 0, rng.NormFloat64()}[i%3]
		}
		want := sum.Clone()
		d.Forward(x, true)
		mat.Add(want, want, d.Backward(g))
		d.Forward(x, true)
		d.BackwardAcc(g, sum)
		for i, w := range want.Data {
			if math.Float64bits(sum.Data[i]) != math.Float64bits(w) {
				t.Fatalf("gated=%t: sum[%d] = %x, Backward then Add gives %x", gated, i, math.Float64bits(sum.Data[i]), math.Float64bits(w))
			}
		}
	}
}

// TestForwardLiveSetsAreScans: along a Sequential, each layer makes its
// output's live set as it writes the output — a Dense in its product's
// epilogue, a dropout as it draws the mask, an eval-mode dropout by
// handing its input's set on — and every Dense reads the set it is
// handed, so what each one holds for its input must be what a scan of
// that input finds, as must the set the caller gets for the last output:
// in train and eval mode, at batch sizes that run the row path, the
// four-row and the eight-row tiles, on every tier.
func TestForwardLiveSetsAreScans(t *testing.T) {
	tiertest.EachLower(t)
	net := buildGatedStack(5, true)
	rng := rand.New(rand.NewSource(6))
	requireScan := func(tag string, got *mat.Live, m *mat.Matrix) {
		t.Helper()
		var want mat.Live
		want.Scan(m)
		n, ok := got.Count()
		if wn, _ := want.Count(); !ok || n != wn {
			t.Fatalf("%s: set of %d live columns (scanned %t), a scan finds %d", tag, n, ok, wn)
		}
	}
	for _, train := range []bool{true, false} {
		for _, batch := range []int{1, 3, 4, 8, 13} {
			x := mat.New(batch, 22)
			for i := range x.Data {
				if rng.Intn(3) > 0 {
					x.Data[i] = rng.NormFloat64()
				}
			}
			var yl mat.Live
			y := net.ForwardLive(x, nil, &yl, train)
			for i, l := range net.Layers[1:] {
				if d, ok := l.(*Dense); ok {
					requireScan(fmt.Sprintf("train=%t batch %d: layer %d's input", train, batch, i+1), d.xLive, d.lastX)
				}
			}
			requireScan(fmt.Sprintf("train=%t batch %d: the output", train, batch), &yl, y)
		}
	}
}
