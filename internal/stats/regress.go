package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// LinearModel is a fitted linear regression y ≈ Σ Coef[i]·x[i] + Intercept.
type LinearModel struct {
	Coef      []float64
	Intercept float64
}

// Predict evaluates the model on one feature vector.
func (m *LinearModel) Predict(x []float64) float64 {
	if len(x) != len(m.Coef) {
		panic("stats: Predict feature length mismatch")
	}
	y := m.Intercept
	for i, c := range m.Coef {
		y += c * x[i]
	}
	return y
}

// FitRidge fits a ridge regression (λ = 0 gives ordinary least squares)
// by solving the regularised normal equations with Gaussian elimination.
// X is the design matrix (rows = samples), y the targets. The intercept
// is not regularised.
func FitRidge(X [][]float64, y []float64, lambda float64) (*LinearModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: %d samples vs %d targets", n, len(y))
	}
	d := len(X[0])
	// Augment with a bias column: solve for [coef..., intercept].
	k := d + 1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k+1) // last column is Aᵀy
	}
	row := make([]float64, k)
	for s := 0; s < n; s++ {
		if len(X[s]) != d {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", s)
		}
		copy(row, X[s])
		row[d] = 1
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][k] += row[i] * y[s]
		}
	}
	for i := 0; i < d; i++ { // do not regularise the intercept
		ata[i][i] += lambda
	}
	sol, err := solveGaussian(ata)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Coef: sol[:d], Intercept: sol[d]}, nil
}

// solveGaussian solves the augmented system [A|b] with partial pivoting.
func solveGaussian(aug [][]float64) ([]float64, error) {
	n := len(aug)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: singular system at column %d", col)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col] / aug[col][col]
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = aug[i][n] / aug[i][i]
	}
	return out, nil
}

// MSE returns the mean squared error of predictions vs targets.
func MSE(pred, y []float64) float64 {
	if len(pred) != len(y) {
		panic("stats: MSE length mismatch")
	}
	var s float64
	for i := range pred {
		d := pred[i] - y[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination.
func R2(pred, y []float64) float64 {
	my := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - pred[i]
		ssRes += d * d
		t := y[i] - my
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// PAAE returns the percentage absolute average error,
// 100·mean(|pred−y| / |y|), the metric of Fig. 4. Targets with |y| below
// eps are skipped to avoid division blow-ups.
func PAAE(pred, y []float64, eps float64) float64 {
	if len(pred) != len(y) {
		panic("stats: PAAE length mismatch")
	}
	var s float64
	n := 0
	for i := range pred {
		if math.Abs(y[i]) < eps {
			continue
		}
		s += math.Abs(pred[i]-y[i]) / math.Abs(y[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// KFoldCV runs k-fold cross-validation of a ridge fit with the given λ
// and returns the mean held-out MSE. Folds are formed from a seeded
// shuffle so results are reproducible.
func KFoldCV(X [][]float64, y []float64, lambda float64, k int, rng *rand.Rand) (float64, error) {
	n := len(X)
	if k < 2 || n < k {
		return 0, fmt.Errorf("stats: cannot %d-fold %d samples", k, n)
	}
	perm := rng.Perm(n)
	var total float64
	for fold := 0; fold < k; fold++ {
		var trX, teX [][]float64
		var trY, teY []float64
		for i, p := range perm {
			if i%k == fold {
				teX = append(teX, X[p])
				teY = append(teY, y[p])
			} else {
				trX = append(trX, X[p])
				trY = append(trY, y[p])
			}
		}
		m, err := FitRidge(trX, trY, lambda)
		if err != nil {
			return 0, err
		}
		pred := make([]float64, len(teX))
		for i, x := range teX {
			pred[i] = m.Predict(x)
		}
		total += MSE(pred, teY)
	}
	return total / float64(k), nil
}

// RandomSearchRidge draws trials λ values log-uniformly from
// [lo, hi] and returns the λ with the best k-fold CV error together with
// the model refit on all data — the paper's "random grid search with
// 5-fold cross validation".
func RandomSearchRidge(X [][]float64, y []float64, lo, hi float64, trials, k int, rng *rand.Rand) (*LinearModel, float64, error) {
	if lo <= 0 || hi < lo {
		return nil, 0, fmt.Errorf("stats: invalid lambda range [%v, %v]", lo, hi)
	}
	bestLambda, bestErr := lo, math.Inf(1)
	for t := 0; t < trials; t++ {
		l := lo * math.Exp(rng.Float64()*math.Log(hi/lo))
		e, err := KFoldCV(X, y, l, k, rng)
		if err != nil {
			return nil, 0, err
		}
		if e < bestErr {
			bestErr, bestLambda = e, l
		}
	}
	m, err := FitRidge(X, y, bestLambda)
	return m, bestLambda, err
}
