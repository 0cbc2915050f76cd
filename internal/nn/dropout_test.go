package nn

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/rng"
)

// TestDropoutMatchesPerElementLoop: the mask pass leaves the mask, the
// output and the stream where one Float64 per element, kept when below
// 1 − rate, leaves them — over values of either sign, zeros and a
// paper-sized activation.
func TestDropoutMatchesPerElementLoop(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		vals := rng.New(3)
		x := mat.New(64, 512)
		for i := range x.Data {
			switch i % 7 {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = math.Copysign(0, -1)
			default:
				x.Data[i] = vals.NormFloat64()
			}
		}
		d := NewDropout(rate, rng.New(11))
		ref := rng.New(11)
		y := d.Forward(x, true)
		inv := 1 / (1 - rate)
		for i, v := range x.Data {
			wantMask, wantY := 0.0, 0.0
			if ref.Float64() < 1-rate {
				wantMask, wantY = inv, v*inv
			}
			if math.Float64bits(d.mask.Data[i]) != math.Float64bits(wantMask) || math.Float64bits(y.Data[i]) != math.Float64bits(wantY) {
				t.Fatalf("rate %v, element %d: mask %v output %v, the loop's %v and %v", rate, i, d.mask.Data[i], y.Data[i], wantMask, wantY)
			}
		}
		_, got := d.rng.Source().Pos()
		if _, want := ref.Source().Pos(); got != want {
			t.Fatalf("rate %v: the stream is at draw %d, the loop's at %d", rate, got, want)
		}
	}
}

// The keep test at its threshold: a draw keeps its element exactly when
// it is below 1 − rate — not at the threshold, kept just below it,
// dropped just above it and at the largest draw Float64 returns (one
// whose 63 bits round up to 1.0 is drawn again, see rng's
// TestFloat64RedrawsOne).
func TestDropoutKeepsBelowThreshold(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		keep := 1 - rate
		draws := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(keep, 0), keep, math.Nextafter(keep, 1), math.Nextafter(1, 0)}
		x := []float64{2, -3, 5, 7, -11, 13}
		mask, y := append([]float64(nil), draws...), make([]float64, len(x))
		applyDropout(mask, y, x, rate)
		for i, u := range draws {
			wantMask, wantY := 0.0, 0.0
			if u < keep {
				wantMask = 1 / keep
				wantY = x[i] * wantMask
			}
			if math.Float64bits(mask[i]) != math.Float64bits(wantMask) || math.Float64bits(y[i]) != math.Float64bits(wantY) {
				t.Errorf("rate %v, draw %v: mask %v output %v, want %v and %v", rate, u, mask[i], y[i], wantMask, wantY)
			}
		}
	}
}

// BenchmarkDropoutForward is one train-mode dropout forward over the
// paper trunk's first activation (64 × 512).
func BenchmarkDropoutForward(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		d := NewDropout(0.5, rng.New(1))
		x := mat.New(64, 512)
		vals := rng.New(2)
		for i := range x.Data {
			x.Data[i] = vals.NormFloat64()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Forward(x, true)
		}
	})
}
