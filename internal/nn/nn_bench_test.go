package nn

import (
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// paperNet builds the paper-size shared trunk (11→512→256) for the
// micro-benchmarks behind Table III.
func paperNet(rng *rand.Rand) *Sequential {
	return NewSequential(
		NewDense("l1", 11, 512, rng),
		&ReLU{},
		NewDense("l2", 512, 256, rng),
		&ReLU{},
		NewDense("out", 256, 27, rng),
	)
}

func BenchmarkForwardBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := paperNet(rng)
	x := mat.New(64, 11)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkForwardBackwardBatch64 is one training step of the paper's
// trunk and one branch — 22 → 512 → 256 → 128 → 18, dropout 0.5 after the
// trunk layers, every layer but the first declaring GatedInput as
// bdq.NewNetwork does (buildGatedStack) — so the backward pass has the
// dead units of a real minibatch to leave out, different ones every
// iteration.
func BenchmarkForwardBackwardBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := buildGatedStack(1, true)
	x := mat.New(64, 22)
	target := mat.New(64, 18)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	opt := NewAdam(0.0025)
	net.SetOptimizer(opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := net.Forward(x, true)
		_, grad := MSE(pred, target)
		opt.Open()
		net.Backward(grad)
	}
}

// paperBDQParams builds parameters with the tensor shapes of the
// paper-scale Twig-C network (22 inputs, trunk 512/256, branch hiddens
// 128, two agents, dims 18/9): 281 912 elements, what node_paper_twigc
// steps every interval.
func paperBDQParams() []*Param {
	var ps []*Param
	dense := func(name string, in, out int) {
		for _, p := range []*Param{NewParam(name+".W", in, out), NewParam(name+".B", 1, out)} {
			p.grad()
			ps = append(ps, p)
		}
	}
	dense("shared0", 22, 512)
	dense("shared1", 512, 256)
	for _, n := range []string{"value0", "value1"} {
		dense(n+".h", 256, 128)
		dense(n+".out", 128, 1)
	}
	dense("adv0.h", 256, 128)
	dense("adv1.h", 256, 128)
	for _, n := range []string{"out0", "out1"} {
		dense("adv0."+n, 128, 18)
		dense("adv1."+n, 128, 9)
	}
	return ps
}

// BenchmarkAdamStep times one optimiser step at paper size. The kernel
// branches on its data (a vector with a lane outside the guard's range
// divides, see adam_amd64.s), so one fixed dense gradient — /dense, every
// vector on the reciprocal path — would flatter it. /varied is the state
// a trained network is in: a quarter of each tensor's columns never
// fired (g = m = v = 0, the zero lanes that must stay on the fast path),
// a quarter fired once and have not since (g = 0, moments decaying) and
// the rest are dense. No moment is subnormal: the sweep every 128 steps
// (flushMoments) takes a dead unit's moment to +0 before it gets there.
// The moments are put back every 1 024 steps, off the clock, before the
// decaying ones leave the guard's range and change what is being timed;
// the sweeps of those steps are timed with them.
func BenchmarkAdamStep(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		params := paperBDQParams()
		rng := rand.New(rand.NewSource(1))
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = rng.NormFloat64()
			}
		}
		opt := NewAdam(0.0025)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Step(params)
		}
	})
	b.Run("varied", func(b *testing.B) {
		params := paperBDQParams()
		rng := rand.New(rand.NewSource(1))
		var m0, v0 [][]float64
		for _, p := range params {
			p.m, p.v = mat.New(p.Panels.K, p.Panels.N), mat.New(p.Panels.K, p.Panels.N)
			class := make([]int, p.Panels.N)
			for j := range class {
				class[j] = rng.Intn(4) // 0: never fired, 1: fired once, else dense
			}
			for i := range p.Grad.Data {
				g := rng.NormFloat64()
				switch c := class[i%p.Panels.N]; {
				case c == 0:
				case c == 1:
					p.m.Data[i], p.v.Data[i] = g, g*g
				default:
					p.Grad.Data[i], p.m.Data[i], p.v.Data[i] = g, g, g*g
				}
			}
			m0, v0 = append(m0, mat.Clone(p.m.Data)), append(v0, mat.Clone(p.v.Data))
		}
		opt := NewAdam(0.0025)
		opt.step = 1000 // past the first steps' large bias corrections
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 1023 {
				b.StopTimer()
				for t, p := range params {
					copy(p.m.Data, m0[t])
					copy(p.v.Data, v0[t])
				}
				b.StartTimer()
			}
			opt.Step(params)
		}
	})
}

// BenchmarkDenseBackward times one dense layer's backward pass: the sweep
// over g (mask, column sums, live set and panels in one pass), g·Wᵀ over
// the live × live block, dW = xᵀ·g and the Adam step of W and B. /quick is
// the daemon's trunk shape, 48 → 64 with a fused ReLU, at the quick
// learner's minibatch of 32: its input is a ReLU layer's output, with a
// quarter of its units dead across the batch and per-element zeros, and
// its output leaves its own units dead where the bias and weights put
// them, so both products skip what a trained network's would.
func BenchmarkDenseBackward(b *testing.B) {
	b.Run("quick", func(b *testing.B) {
		const in, out, batch = 48, 64, 32
		rng := rand.New(rand.NewSource(1))
		d := NewDenseReLU("quick", in, out, rng)
		d.GatedInput = true
		opt := NewAdam(0.0025)
		d.SetOptimizer(opt)
		x, g := mat.New(batch, in), mat.New(batch, out)
		for c := 0; c < in; c++ {
			dead := rng.Intn(4) == 0
			for r := 0; r < batch; r++ {
				if v := rng.NormFloat64(); !dead && v > 0 {
					x.Set(r, c, v)
				}
			}
		}
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		d.Forward(x, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Open()
			d.Backward(g)
		}
	})
}
