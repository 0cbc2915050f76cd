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
	// structure node_paper_twigc shows (DESIGN.md §5m): whole dead
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
	// Backward-pass shapes: dW = xᵀ·g and gradIn = g·Wᵀ for the widest layer.
	x := benchMat(64, 512, rng)
	g := benchMat(64, 256, rng)
	w := benchMat(512, 256, rng)
	dw := New(512, 256)
	gin := New(64, 512)
	b.Run("MulTransA/512x64x256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulTransA(dw, x, g)
		}
		b.ReportMetric(float64(2*64*512*256)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
	})
	b.Run("MulTransB/64x256x512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulTransB(gin, g, w)
		}
		b.ReportMetric(float64(2*64*256*512)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
	})
}
