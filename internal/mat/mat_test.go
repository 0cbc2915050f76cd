package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := m.Row(1)[2]; got != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", got)
	}
}

// fromRows builds a matrix by copying the given equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestFromRowsAndClone(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := New(2, 2)
	Mul(c, a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim mismatch")
		}
	}()
	Mul(New(2, 2), New(2, 3), New(4, 2))
}

// TestMulTransConsistency checks MulTransA and MulTransB against explicit
// transposition followed by Mul, on random matrices.
func TestMulTransConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, k, m) // aᵀ is m×k
		b := randMat(rng, k, n)
		got := New(m, n)
		MulTransA(got, a, b)
		want := New(m, n)
		Mul(want, transpose(a), b)
		assertMatEq(t, "MulTransA", got, want, 1e-12)

		a2 := randMat(rng, m, k)
		b2 := randMat(rng, n, k) // b2ᵀ is k×n
		got2 := New(m, n)
		MulTransB(got2, a2, b2)
		want2 := New(m, n)
		Mul(want2, a2, transpose(b2))
		assertMatEq(t, "MulTransB", got2, want2, 1e-12)
	}
}

func transpose(a *Matrix) *Matrix {
	o := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			o.Set(j, i, a.At(i, j))
		}
	}
	return o
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func assertMatEq(t *testing.T, label string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: data[%d] = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := New(2, 2)
	Add(c, a, b)
	if c.At(1, 1) != 12 {
		t.Fatalf("Add = %v", c.Data)
	}
	Sub(c, b, a)
	if c.At(0, 0) != 4 {
		t.Fatalf("Sub = %v", c.Data)
	}
	Hadamard(c, a, b)
	if c.At(1, 0) != 21 {
		t.Fatalf("Hadamard = %v", c.Data)
	}
	c.Scale(2)
	if c.At(1, 0) != 42 {
		t.Fatalf("Scale = %v", c.Data)
	}
}

func TestBroadcastAndReductions(t *testing.T) {
	m := fromRows([][]float64{{11, 22}, {13, 24}})
	sums := make([]float64, 2)
	m.RowSumsInto(sums)
	if sums[0] != 33 || sums[1] != 37 {
		t.Fatalf("RowSumsInto = %v", sums)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	if Argmax([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("Argmax should return first max")
	}
	if Max([]float64{-3, -1, -2}) != -1 || Min([]float64{-3, -1, -2}) != -3 {
		t.Fatal("Max/Min")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty")
	}
	v := []float64{1, 2}
	Scale(3, v)
	if v[1] != 6 {
		t.Fatal("Scale vec")
	}
	c := Clone(v)
	c[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases")
	}
}

// Property: matrix multiplication distributes over addition:
// A·(B+C) == A·B + A·C.
func TestMulDistributesOverAdd(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, k, n)
		bc := New(k, n)
		Add(bc, b, c)
		left := New(m, n)
		Mul(left, a, bc)
		ab := New(m, n)
		Mul(ab, a, b)
		ac := New(m, n)
		Mul(ac, a, c)
		right := New(m, n)
		Add(right, ab, ac)
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if !almostEq(Dot(a, b), Dot(b, a), 1e-9) {
			return false
		}
		a2 := Clone(a)
		Scale(2, a2)
		return almostEq(Dot(a2, b), 2*Dot(a, b), 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
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
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 1, 1}, {0.5, 0.25, 2}})
	sums := make([]float64, 5)
	m.RowSumsInto(sums) // four rows a pass, then one alone
	if sums[0] != 6 || sums[1] != 15 || sums[2] != 24 || sums[3] != 3 || sums[4] != 2.75 {
		t.Fatalf("RowSumsInto = %v", sums)
	}
}
