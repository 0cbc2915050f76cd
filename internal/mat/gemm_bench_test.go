package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmShapes are the real layer shapes of the paper-size BDQ network
// (StateDim 22, shared 512/256, branch 128, dims 18/9) at the training
// batch size of 64 plus the batch-1 inference shape — the products that
// dominate Twig's per-interval cost (Table III row 1).
var gemmShapes = []struct{ m, k, n int }{
	{64, 22, 512},  // shared0 forward
	{64, 512, 256}, // shared1 forward
	{64, 256, 128}, // branch hidden forward
	{64, 128, 18},  // advantage head forward
	{1, 22, 512},   // batch-1 action selection
}

func benchMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkGEMM times the three products the learner runs at the paper
// shapes, under each kernel tier the host has
// (BenchmarkGEMM/avx512/MulPackedBiasAct/64x512x256, …/avx2/…,
// …/portable/…), so one run on one host compares the tiers.
func BenchmarkGEMM(b *testing.B) {
	withKernels(b, func(kernel string) { b.Run(kernel, benchGEMM) })
}

func benchGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// run times fn as one row, reporting nominal GFLOPS: a product that
	// skips dead work reads faster.
	run := func(name string, flops int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
		})
	}
	// The forward product: x·W + b through ReLU against W's panels.
	for _, s := range gemmShapes {
		a, pw := benchMat(s.m, s.k, rng), PackB(benchMat(s.k, s.n, rng))
		dst, bias := New(s.m, s.n), benchMat(1, s.n, rng).Data
		run(fmt.Sprintf("MulPackedBiasAct/%dx%dx%d", s.m, s.k, s.n), 2*s.m*s.k*s.n, func() {
			MulPackedBiasAct(dst, a, nil, pw, bias, ActReLU)
		})
	}
	// The two forward products that dominate the paper-scale step, with the
	// zero structure node_paper_twigc shows (DESIGN.md, "The training step
	// and its kernel tiers"): whole dead columns at 0 %, 42 % and 70 %, and
	// per-element dropout zeros, which no column scan can remove.
	for _, s := range [][3]int{{64, 512, 256}, {64, 256, 128}} {
		m, k, n := s[0], s[1], s[2]
		pw, dst := PackB(benchMat(k, n, rng)), New(m, n)
		for _, v := range []struct {
			name     string
			deadFrac float64
			zeroFrac float64
		}{{"dead0", 0, 0}, {"dead42", 0.42, 0}, {"dead70", 0.70, 0}, {"randzero50", 0, 0.5}} {
			a := benchMat(m, k, rng)
			for c := 0; c < k; c++ {
				dead := rng.Float64() < v.deadFrac
				for r := 0; r < m; r++ {
					if dead || rng.Float64() < v.zeroFrac {
						a.Set(r, c, 0)
					}
				}
			}
			run(fmt.Sprintf("MulPackedBiasAct/%dx%dx%d/%s", m, k, n, v.name), 2*m*k*n, func() {
				MulPackedBiasAct(dst, a, nil, pw, nil, ActIdentity)
			})
		}
	}
	// The backward products: dW = xᵀ·g (MulTransALive) and gradIn = g·Wᵀ
	// (MulTransBPacked, W's panels vouching for its finiteness, as a
	// Dense's do) for the two layers that dominate the pass — the second
	// trunk layer (512 → 256) and a branch hidden layer (256 → 128) —
	// dense, and with the live shares node_paper_twigc's minibatches show
	// on both sides (DESIGN.md, "The training step and its kernel tiers"):
	// 56 % of shared0's units and 72 % of shared1's live going into the
	// trunk layer, 72 % and 48 % going into a branch. rowsNcolsM names the
	// live shares of x's columns (dW's rows) and g's (dW's columns);
	// depthNoutM those of g's columns (the depth of g·Wᵀ) and of x's, the
	// gate that lists which columns of the input gradient anyone reads.
	for _, s := range []struct {
		in, out         int
		liveIn, liveOut float64
	}{{512, 256, 0.56, 0.72}, {256, 128, 0.72, 0.48}} {
		x, g, pw := benchMat(64, s.in, rng), benchMat(64, s.out, rng), PackB(benchMat(s.in, s.out, rng))
		xs, gs := x.Clone(), g.Clone()
		killColumns(xs, 1-s.liveIn, rng)
		killColumns(gs, 1-s.liveOut, rng)
		dw, gin := New(s.in, s.out), New(64, s.in)
		flops := 2 * 64 * s.in * s.out
		transA := fmt.Sprintf("MulTransALive/%dx64x%d", s.in, s.out)
		transB := fmt.Sprintf("MulTransBPacked/64x%dx%d", s.out, s.in)
		run(transA, flops, func() { MulTransALive(dw, x, nil, g, nil, nil) })
		run(fmt.Sprintf("%s/rows%.0fcols%.0f", transA, 100*s.liveIn, 100*s.liveOut), flops, func() {
			MulTransALive(dw, xs, nil, gs, nil, nil)
		})
		run(transB, flops, func() { MulTransBPacked(gin, g, nil, pw, nil, false) })
		gate := scanned(xs)
		run(fmt.Sprintf("%s/depth%.0fout%.0f", transB, 100*s.liveOut, 100*s.liveIn), flops, func() {
			MulTransBPacked(gin, gs, nil, pw, gate, false)
		})
	}
}

// BenchmarkWideTile is the AVX-512 tile's ceiling, warm: the bare tile
// (one pass into the accumulator array, no epilogue) over one and two
// panels at depths 64…512, operands in L1/L2, reported as multiply-adds
// per ns. A one-panel pass is what an odd last panel runs.
func BenchmarkWideTile(b *testing.B) {
	if !haveAVX512 {
		b.Skip("no AVX-512 on this machine (or force-disabled)")
	}
	rng := rand.New(rand.NewSource(1))
	for _, panels := range []int{1, 2} {
		for _, k := range []int{64, 128, 256, 512} {
			a := benchMat(zr, k, rng)
			bp := benchMat(1, 2*nr*k, rng).Data
			b.Run(fmt.Sprintf("panels%d/k%d", panels, k), func(b *testing.B) {
				var acc [zr * zw]float64
				bare := epilogue{}
				t := bare.tile16For(k, nil, 2*nr)
				for q := range t.a {
					t.a[q], t.d[q] = &a.Row(q)[0], &acc[q*zw]
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					t.run(bp, 0, panels)
				}
				b.ReportMetric(float64(zr*nr*panels*k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "madd/ns")
			})
		}
	}
}
