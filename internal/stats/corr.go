package stats

import "math"

// Pearson returns the Pearson correlation coefficient between x and y,
// or 0 when either series is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CovarianceMatrix computes the population covariance matrix of the
// column series.
func CovarianceMatrix(cols [][]float64) [][]float64 {
	n := len(cols)
	means := make([]float64, n)
	for i, c := range cols {
		means[i] = Mean(c)
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	if n == 0 || len(cols[0]) == 0 {
		return m
	}
	samples := float64(len(cols[0]))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for t := range cols[i] {
				s += (cols[i][t] - means[i]) * (cols[j][t] - means[j])
			}
			s /= samples
			m[i][j] = s
			m[j][i] = s
		}
	}
	return m
}

// MaxScale feature-scales each column to [0, 1] using max-value
// normalisation with non-zero centralisation (Sec. III-B1): each value is
// divided by the column maximum; all-zero columns are left untouched.
// It returns the scaled copies and the maxima used.
func MaxScale(cols [][]float64) (scaled [][]float64, maxima []float64) {
	scaled = make([][]float64, len(cols))
	maxima = make([]float64, len(cols))
	for i, c := range cols {
		mx := 0.0
		for _, v := range c {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		maxima[i] = mx
		out := make([]float64, len(c))
		if mx > 0 {
			for j, v := range c {
				out[j] = v / mx
			}
		}
		scaled[i] = out
	}
	return scaled, maxima
}
