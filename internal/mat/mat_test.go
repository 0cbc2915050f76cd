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
	if got := m.Col(2); got[1] != 7 || got[0] != 0 {
		t.Fatalf("Col(2) = %v", got)
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
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
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
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
	c.AddScaled(1, a)
	if c.At(1, 0) != 45 {
		t.Fatalf("AddScaled = %v", c.Data)
	}
	Apply(c, a, func(x float64) float64 { return -x })
	if c.At(0, 1) != -2 {
		t.Fatalf("Apply = %v", c.Data)
	}
}

func TestBroadcastAndReductions(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowBroadcast([]float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowBroadcast = %v", m.Data)
	}
	s := m.ColSums()
	if s[0] != 24 || s[1] != 46 {
		t.Fatalf("ColSums = %v", s)
	}
	means := m.RowMeans()
	if means[0] != 16.5 {
		t.Fatalf("RowMeans = %v", means)
	}
	if m.MaxAbs() != 24 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if !almostEq(FromRows([][]float64{{3, 4}}).FrobeniusNorm(), 5, 1e-12) {
		t.Fatal("FrobeniusNorm")
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
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("Mean/Std of empty")
	}
	if !almostEq(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2, 1e-12) {
		t.Fatal("Std")
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
