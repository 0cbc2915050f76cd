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
		NewReLU(),
		NewDense("l2", 512, 256, rng),
		NewReLU(),
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := net.Forward(x, true)
		_, grad := MSE(pred, target)
		net.Backward(grad)
		opt.StepAndZeroGrad(net.Params())
	}
}

// paperBDQParams builds parameters with the tensor shapes of the
// paper-scale Twig-C network (22 inputs, trunk 512/256, branch hiddens
// 128, two agents, dims 18/9): 281 912 elements, what node_paper_twigc
// steps every interval.
func paperBDQParams() []*Param {
	var ps []*Param
	dense := func(name string, in, out int) {
		ps = append(ps, NewParam(name+".W", in, out), NewParam(name+".B", 1, out))
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
// a quarter fired once and have not since (g = 0, moments decaying), one
// element in a hundred holds a denormal first moment (its vector falls
// through to the divider) and the rest are dense. The moments are put
// back every 1 024 steps, off the clock, before the decaying ones leave
// the guard's range and change what is being timed.
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
			p.m, p.v = mat.New(p.Value.Rows, p.Value.Cols), mat.New(p.Value.Rows, p.Value.Cols)
			class := make([]int, p.Value.Cols)
			for j := range class {
				class[j] = rng.Intn(4) // 0: never fired, 1: fired once, else dense
			}
			for i := range p.Grad.Data {
				g := rng.NormFloat64()
				switch c := class[i%p.Value.Cols]; {
				case c == 0:
				case rng.Intn(100) == 0:
					p.m.Data[i] = 5e-324 * float64(1+rng.Intn(1000))
					p.v.Data[i] = g * g
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
