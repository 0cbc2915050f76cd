// Package stats provides the statistical tooling Twig's methodology
// needs: descriptive statistics and percentiles (tail latency), Pearson
// correlation matrices and principal component analysis (the Table-I PMC
// selection pipeline), ordinary least squares / ridge regression with
// k-fold cross-validation and random search (the Eq. 2 power model), and
// histogram / violin summaries (Figs. 1 and 6).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary bundles the descriptive statistics reported for error
// distributions in Fig. 1.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	P50, P99  float64
}

// Describe computes a Summary of xs.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  Std(xs),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  percentileSorted(sorted, 50),
		P99:  percentileSorted(sorted, 99),
	}
}

// Histogram is a fixed-width binned density over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into n equal-width bins spanning [lo, hi]; values
// outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	width := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// Density returns the probability density of bin i (area-normalised).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.Total) * width)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// ProbabilityAtZero reports the probability density at x = 0, used for
// the paper's "probability of zero prediction error" comparison.
func (h *Histogram) ProbabilityAtZero() float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	b := int((0 - h.Lo) / width)
	if b < 0 || b >= len(h.Counts) {
		return 0
	}
	return h.Density(b)
}

// ViolinBucket summarises the prediction-error distribution within one
// tail-latency range, mirroring one violin of Figs. 1b/1d.
type ViolinBucket struct {
	LatencyLo, LatencyHi float64
	Median               float64
	Spread               float64 // inter-quartile range
	N                    int
}

// ViolinByLatency groups (latency, error) pairs into nBuckets equal-width
// latency ranges and summarises the error distribution inside each.
func ViolinByLatency(latency, errs []float64, nBuckets int) []ViolinBucket {
	if len(latency) != len(errs) {
		panic("stats: ViolinByLatency length mismatch")
	}
	if len(latency) == 0 || nBuckets <= 0 {
		return nil
	}
	lo, hi := latency[0], latency[0]
	for _, l := range latency {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(nBuckets)
	groups := make([][]float64, nBuckets)
	for i, l := range latency {
		b := int((l - lo) / width)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		groups[b] = append(groups[b], errs[i])
	}
	out := make([]ViolinBucket, 0, nBuckets)
	for b, g := range groups {
		vb := ViolinBucket{
			LatencyLo: lo + float64(b)*width,
			LatencyHi: lo + float64(b+1)*width,
			N:         len(g),
		}
		if len(g) > 0 {
			sort.Float64s(g)
			vb.Median = percentileSorted(g, 50)
			vb.Spread = percentileSorted(g, 75) - percentileSorted(g, 25)
		}
		out = append(out, vb)
	}
	return out
}
