package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extremes")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 75); got != 7.5 {
		t.Fatalf("p75 of {0,10} = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestDescribe(t *testing.T) {
	s := Describe([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !approx(s.Mean, 2.5, 1e-12) {
		t.Fatalf("Describe = %+v", s)
	}
	if Describe(nil).N != 0 {
		t.Fatal("empty Describe")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{-5, 0.1, 0.1, 0.9, 99}, 0, 1, 10)
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	// bin width 0.1: -5 clamps to bin0, 0.1→bin1 (×2), 0.9→bin9, 99 clamps to bin9.
	if h.Counts[0] != 1 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if h.Counts[1] != 2 || h.Counts[9] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if !approx(h.BinCenter(0), 0.05, 1e-12) {
		t.Fatalf("BinCenter = %v", h.BinCenter(0))
	}
	// Densities integrate to 1.
	var area float64
	width := 0.1
	for i := range h.Counts {
		area += h.Density(i) * width
	}
	if !approx(area, 1, 1e-9) {
		t.Fatalf("area = %v", area)
	}
}

func TestHistogramProbabilityAtZero(t *testing.T) {
	h := NewHistogram([]float64{-0.05, 0.01, 0.02, 1.5}, -1, 1, 20)
	if h.ProbabilityAtZero() <= 0 {
		t.Fatal("zero-bin density should be positive")
	}
	out := NewHistogram([]float64{5}, 1, 2, 4)
	if out.ProbabilityAtZero() != 0 {
		t.Fatal("zero outside range must have density 0")
	}
}

func TestViolinByLatency(t *testing.T) {
	lat := []float64{1, 1, 1, 10, 10, 10}
	errs := []float64{0, 1, 2, -4, -5, -6}
	v := ViolinByLatency(lat, errs, 2)
	if len(v) != 2 {
		t.Fatalf("buckets = %d", len(v))
	}
	if v[0].Median != 1 || v[1].Median != -5 {
		t.Fatalf("medians = %v, %v", v[0].Median, v[1].Median)
	}
	if v[0].N != 3 || v[1].N != 3 {
		t.Fatal("bucket sizes")
	}
	if ViolinByLatency(nil, nil, 3) != nil {
		t.Fatal("empty input")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if !approx(Pearson(x, y), 1, 1e-12) {
		t.Fatal("perfect positive correlation")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !approx(Pearson(x, neg), -1, 1e-12) {
		t.Fatal("perfect negative correlation")
	}
	if Pearson(x, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Fatal("constant series must yield 0")
	}
}

func TestMaxScale(t *testing.T) {
	scaled, maxima := MaxScale([][]float64{{1, 2, 4}, {0, 0, 0}})
	if maxima[0] != 4 || maxima[1] != 0 {
		t.Fatalf("maxima = %v", maxima)
	}
	if scaled[0][2] != 1 || scaled[0][0] != 0.25 {
		t.Fatalf("scaled = %v", scaled[0])
	}
	if scaled[1][0] != 0 {
		t.Fatal("all-zero column must stay zero")
	}
}

func TestPCARecoverVarianceDirection(t *testing.T) {
	// Two features: y = 2x (all variance along (1,2)/√5), plus a tiny
	// independent third feature.
	rng := rand.New(rand.NewSource(3))
	n := 500
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		cols[0][i] = x
		cols[1][i] = 2 * x
		cols[2][i] = rng.NormFloat64() * 0.01
	}
	p := PCAFromColumns(cols)
	if p.Eigenvalues[0] < p.Eigenvalues[1] || p.Eigenvalues[1] < p.Eigenvalues[2] {
		t.Fatalf("eigenvalues not sorted: %v", p.Eigenvalues)
	}
	c := p.Components[0]
	// Expect direction ∝ (1, 2, 0).
	ratio := math.Abs(c[1] / c[0])
	if !approx(ratio, 2, 0.05) {
		t.Fatalf("first component = %v, want ratio 2", c)
	}
	if k := p.ComponentsForCoverage(0.95); k != 1 {
		t.Fatalf("ComponentsForCoverage = %d, want 1", k)
	}
	imp := p.FeatureImportance(1)
	if imp[1] <= imp[0] || imp[0] <= imp[2] {
		t.Fatalf("importance ordering = %v", imp)
	}
}

func TestJacobiEigenIdentity(t *testing.T) {
	vals, _ := jacobiEigen([][]float64{{3, 0}, {0, 7}})
	if !(approx(vals[0], 3, 1e-9) && approx(vals[1], 7, 1e-9)) &&
		!(approx(vals[0], 7, 1e-9) && approx(vals[1], 3, 1e-9)) {
		t.Fatalf("eigenvalues = %v", vals)
	}
}

// Property: the sum of PCA eigenvalues equals the trace of the
// covariance matrix.
func TestPCAEigenvalueSumEqualsTrace(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(5)
		n := 30
		cols := make([][]float64, d)
		for i := range cols {
			cols[i] = make([]float64, n)
			for j := range cols[i] {
				cols[i][j] = rng.NormFloat64()
			}
		}
		cov := CovarianceMatrix(cols)
		p := PCAFromCovariance(cov)
		var trace, sum float64
		for i := 0; i < d; i++ {
			trace += cov[i][i]
			sum += p.Eigenvalues[i]
		}
		return approx(trace, sum, 1e-8*(1+math.Abs(trace)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFitRidgeRecoversOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		y[i] = 3*a - 2*b + 0.5 + rng.NormFloat64()*0.01
	}
	m, err := FitRidge(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Coef[0], 3, 0.05) || !approx(m.Coef[1], -2, 0.05) || !approx(m.Intercept, 0.5, 0.05) {
		t.Fatalf("fit = %+v", m)
	}
	pred := make([]float64, n)
	for i := range X {
		pred[i] = m.Predict(X[i])
	}
	if R2(pred, y) < 0.99 {
		t.Fatalf("R2 = %v", R2(pred, y))
	}
	if MSE(pred, y) > 0.001 {
		t.Fatalf("MSE = %v", MSE(pred, y))
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		X[i] = []float64{a}
		y[i] = 5 * a
	}
	ols, _ := FitRidge(X, y, 0)
	ridge, _ := FitRidge(X, y, 100)
	if math.Abs(ridge.Coef[0]) >= math.Abs(ols.Coef[0]) {
		t.Fatalf("ridge %v should shrink vs OLS %v", ridge.Coef[0], ols.Coef[0])
	}
}

func TestFitRidgeErrors(t *testing.T) {
	if _, err := FitRidge(nil, nil, 0); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected error for ragged design matrix")
	}
}

func TestPAAE(t *testing.T) {
	got := PAAE([]float64{110, 90}, []float64{100, 100}, 1e-9)
	if !approx(got, 10, 1e-12) {
		t.Fatalf("PAAE = %v", got)
	}
	// Zero targets skipped.
	if PAAE([]float64{1}, []float64{0}, 1e-9) != 0 {
		t.Fatal("PAAE with zero target")
	}
}

func TestKFoldCVAndRandomSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 2
		X[i] = []float64{a}
		y[i] = 4*a + 1 + rng.NormFloat64()*0.05
	}
	mse, err := KFoldCV(X, y, 0, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.01 {
		t.Fatalf("CV MSE = %v", mse)
	}
	m, lambda, err := RandomSearchRidge(X, y, 1e-6, 1, 10, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lambda <= 0 {
		t.Fatalf("lambda = %v", lambda)
	}
	if !approx(m.Coef[0], 4, 0.2) {
		t.Fatalf("coef = %v", m.Coef[0])
	}
	if _, err := KFoldCV(X[:3], y[:3], 0, 5, rng); err == nil {
		t.Fatal("expected error for too few samples")
	}
	if _, _, err := RandomSearchRidge(X, y, 0, 1, 2, 5, rng); err == nil {
		t.Fatal("expected error for invalid lambda range")
	}
}
