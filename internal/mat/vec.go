package mat

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Sum returns Σ v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Argmax returns the index of the largest element of v (first on ties).
// It panics on an empty slice.
func Argmax(v []float64) int {
	if len(v) == 0 {
		panic("mat: Argmax of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Max returns the largest element of v. It panics on an empty slice.
func Max(v []float64) float64 { return v[Argmax(v)] }

// Min returns the smallest element of v. It panics on an empty slice.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("mat: Min of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Scale multiplies every element of v by s in place.
func Scale(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
