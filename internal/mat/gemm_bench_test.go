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

// BenchmarkGEMM runs every row under each kernel tier the host has
// (BenchmarkGEMM/avx512/Mul/64x512x256, …/avx2/…, …/portable/…), so one
// run on one host compares the tiers.
func BenchmarkGEMM(b *testing.B) {
	withKernels(b, func(kernel string) { b.Run(kernel, benchGEMM) })
}

func benchGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmShapes {
		a := benchMat(s.m, s.k, rng)
		bb := benchMat(s.k, s.n, rng)
		dst := New(s.m, s.n)
		flops := 2 * s.m * s.k * s.n
		b.Run(fmt.Sprintf("Mul/%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Mul(dst, a, bb)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
		})
	}
	// The two products that dominate the paper-scale step, with the zero
	// structure node_paper_twigc shows (DESIGN.md, "The training step and
	// its kernel tiers"): whole dead
	// columns at 0 %, 42 % and 70 %, and per-element dropout zeros, which
	// no column scan can remove. GFLOPS counts the nominal shape, so a
	// product that skips work reads faster.
	for _, s := range [][3]int{{64, 512, 256}, {64, 256, 128}} {
		m, k, n := s[0], s[1], s[2]
		bb := benchMat(k, n, rng)
		dst := New(m, n)
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
			b.Run(fmt.Sprintf("Mul/%dx%dx%d/%s", m, k, n, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Mul(dst, a, bb)
				}
				b.ReportMetric(float64(2*m*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
			})
		}
	}
	// Backward-pass shapes: dW = xᵀ·g and gradIn = g·Wᵀ for the two
	// products that dominate it — the second trunk layer (512 → 256) and a
	// branch hidden layer (256 → 128) — dense, and with the live shares
	// node_paper_twigc's minibatches show on both sides (DESIGN.md, "The
	// training step and its kernel tiers"):
	// 56 % of shared0's units and 72 % of shared1's live going into the
	// trunk layer, 72 % and 48 % going into a branch. rowsNcolsM names the
	// live shares of x's columns (dW's rows) and g's (dW's columns);
	// depthNoutM those of g's columns (the depth of g·Wᵀ) and of x's, the
	// gate that lists which columns of the input gradient anyone reads.
	for _, s := range []struct {
		in, out         int
		liveIn, liveOut float64
	}{{512, 256, 0.56, 0.72}, {256, 128, 0.72, 0.48}} {
		x, g, w := benchMat(64, s.in, rng), benchMat(64, s.out, rng), benchMat(s.in, s.out, rng)
		xs, gs := x.Clone(), g.Clone()
		killColumns(xs, 1-s.liveIn, rng)
		killColumns(gs, 1-s.liveOut, rng)
		dw, gin := New(s.in, s.out), New(64, s.in)
		flops := float64(2 * 64 * s.in * s.out)
		gflops := func(b *testing.B) {
			b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
		}
		transA := fmt.Sprintf("MulTransA/%dx64x%d", s.in, s.out)
		transB := fmt.Sprintf("MulTransB/64x%dx%d", s.out, s.in)
		b.Run(transA, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTransA(dw, x, g)
			}
			gflops(b)
		})
		b.Run(fmt.Sprintf("%s/rows%.0fcols%.0f", transA, 100*s.liveIn, 100*s.liveOut), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTransA(dw, xs, gs)
			}
			gflops(b)
		})
		b.Run(transB, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTransB(gin, g, w)
			}
			gflops(b)
		})
		b.Run(fmt.Sprintf("%s/depth%.0fout%.0f", transB, 100*s.liveOut, 100*s.liveIn), func(b *testing.B) {
			gate := scanned(xs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTransBLive(gin, gs, nil, w, gate, false)
			}
			gflops(b)
		})
	}
}
