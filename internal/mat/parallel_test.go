package mat

import (
	"math/rand"
	"testing"
)

// sparseRandMat is randMat with exact zeros mixed in so the kernels'
// zero-skip path is hit.
func sparseRandMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestParallelGEMMBitIdentical verifies that the parallel kernels produce
// results bitwise equal to serial execution — not merely close — across
// randomized shapes on both sides of the fan-out threshold (lowered to
// 2¹⁶ multiply-adds so that shapes this small straddle it).
func TestParallelGEMMBitIdentical(t *testing.T) {
	old, oldThreshold := Parallelism(), parallelThreshold
	defer func() {
		SetParallelism(old)
		parallelThreshold = oldThreshold
	}()
	parallelThreshold = 1 << 16

	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{3, 4, 5},      // tiny: below threshold, parallel path must defer to serial
		{1, 512, 256},  // single row: cannot split
		{64, 128, 256}, // batch-64 training shape: above threshold
		{70, 65, 33},   // rows not divisible by worker count
		{128, 512, 1},  // thin output
	}
	for trial := 0; trial < 3; trial++ {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := sparseRandMat(rng, m, k)
			b := sparseRandMat(rng, k, n)

			SetParallelism(1)
			mulS, mulP := New(m, n), New(m, n)
			Mul(mulS, a, b)
			SetParallelism(4)
			Mul(mulP, a, b)
			assertBitEqual(t, "Mul", s, mulS, mulP)

			// dst = aᵀ·b needs matching row counts: use a as m×k, c as m×n.
			c := sparseRandMat(rng, m, n)
			taS, taP := New(k, n), New(k, n)
			SetParallelism(1)
			MulTransA(taS, a, c)
			SetParallelism(4)
			MulTransA(taP, a, c)
			assertBitEqual(t, "MulTransA", s, taS, taP)

			// dst = a·dᵀ needs matching column counts: d as n×k.
			d := sparseRandMat(rng, n, k)
			tbS, tbP := New(m, n), New(m, n)
			SetParallelism(1)
			MulTransB(tbS, a, d)
			SetParallelism(4)
			MulTransB(tbP, a, d)
			assertBitEqual(t, "MulTransB", s, tbS, tbP)
		}
	}
}

func assertBitEqual(t *testing.T, op string, shape [3]int, want, got *Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s shape %v: element %d differs: serial %v parallel %v",
				op, shape, i, want.Data[i], got.Data[i])
		}
	}
}

func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(-3)
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3), want 1", got)
	}
	SetParallelism(8)
	if got := Parallelism(); got != 8 {
		t.Fatalf("Parallelism() = %d, want 8", got)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	m := p.Get(3, 4)
	m.Fill(7)
	p.Put(m)
	m2 := p.Get(3, 4)
	if m2 != m {
		t.Fatalf("pool did not reuse the returned matrix")
	}
	if got := p.Get(3, 4); got == m {
		t.Fatalf("pool handed out the same matrix twice")
	}
	p.Put(nil) // must not panic
}

func TestIntoVariants(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	sums := make([]float64, 3)
	m.ColSumsInto(sums)
	if sums[0] != 5 || sums[1] != 7 || sums[2] != 9 {
		t.Fatalf("ColSumsInto = %v", sums)
	}
	means := make([]float64, 2)
	m.RowMeansInto(means)
	if means[0] != 2 || means[1] != 5 {
		t.Fatalf("RowMeansInto = %v", means)
	}
}
