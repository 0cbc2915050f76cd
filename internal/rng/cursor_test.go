package rng

import (
	"math"
	"math/rand"
	"testing"
)

// refPoisson is Cursor.Poisson's per-draw loop on a math/rand generator.
func refPoisson(r *rand.Rand, at, marks []float64, t, end, rate, mu, sigma float64) ([]float64, []float64) {
	for {
		if t += r.ExpFloat64() / rate; t >= end {
			return at, marks
		}
		at = append(at, t)
		marks = append(marks, mu+sigma*r.NormFloat64())
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCursorMatchesStdlib draws a million interleaved ExpFloat64,
// NormFloat64 and Float64 a seed on one cursor, closing and reopening it
// now and then, and requires math/rand's stream bit for bit. A draw that
// took more than one step left its fast path; the counts show both
// ziggurats' base strip and wedge ran on every seed.
func TestCursorMatchesStdlib(t *testing.T) {
	const n = 1000000
	for _, seed := range []int64{1, 2, 0, -1, 42, 89482311, math.MaxInt32, math.MinInt64} {
		ours, ref := New(seed), rand.New(rand.NewSource(seed))
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		var strip, wedge [2]int // [ExpFloat64, NormFloat64]
		c := ours.Cursor()
		for i := 0; i < n; i++ {
			if i%4096 == 0 {
				c.Close()
				c = ours.Cursor()
			}
			before := c.n
			var a, b float64
			kind := mix.Intn(3)
			switch kind {
			case 0:
				a, c = c.ExpFloat64()
				b = ref.ExpFloat64()
			case 1:
				a, c = c.NormFloat64()
				b = ref.NormFloat64()
			default:
				a, c = c.Float64()
				b = ref.Float64()
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: draw %d (kind %d) is %v, math/rand's %v", seed, i, kind, a, b)
			}
			if kind < 2 && c.n-before > 1 {
				if edge := [2]float64{re, rn}[kind]; math.Abs(a) >= edge {
					strip[kind]++
				} else {
					wedge[kind]++
				}
			}
		}
		c.Close()
		for k, name := range []string{"ExpFloat64", "NormFloat64"} {
			if strip[k] == 0 || wedge[k] == 0 {
				t.Errorf("seed %d: %s took its base strip %d and its wedge %d times; both must run", seed, name, strip[k], wedge[k])
			}
		}
		if a, b := ours.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d: after the cursor closed, %d vs math/rand's %d", seed, a, b)
		}
	}
}

// A pass leaves the stream where the per-draw loop leaves it: the same
// values, then the same Pos and the same next draw.
func TestPassPosMatchesPerDrawLoop(t *testing.T) {
	for _, seed := range []int64{3, 77} {
		pass, loop := New(seed), New(seed)

		c := pass.Cursor()
		at, marks, c := c.Poisson(nil, nil, 2, 3, 20000, -1.5, 0.7)
		c.Close()
		var wantAt, wantMarks []float64
		wantAt, wantMarks = refPoisson(loop.Rand, wantAt, wantMarks, 2, 3, 20000, -1.5, 0.7)
		if !sameBits(at, wantAt) || !sameBits(marks, wantMarks) {
			t.Fatalf("seed %d: Poisson drew %d arrivals, the loop %d, or their values differ", seed, len(at), len(wantAt))
		}
		if p, l := pos(pass), pos(loop); p != l {
			t.Fatalf("seed %d: Pos after Poisson %v, after the loop %v", seed, p, l)
		}

		fs := make([]float64, 9999)
		c = pass.Cursor()
		c = c.Float64s(fs)
		c.Close()
		for i, f := range fs {
			if g := loop.Float64(); math.Float64bits(f) != math.Float64bits(g) {
				t.Fatalf("seed %d: Float64s[%d] = %v, the loop's %v", seed, i, f, g)
			}
		}
		if p, l := pos(pass), pos(loop); p != l {
			t.Fatalf("seed %d: Pos after Float64s %v, after the loop %v", seed, p, l)
		}
		if a, b := pass.NormFloat64(), loop.NormFloat64(); a != b {
			t.Fatalf("seed %d: next draw %v vs %v", seed, a, b)
		}
	}
}

func pos(r *Rand) [2]int64 {
	seed, count := r.Source().Pos()
	return [2]int64{seed, int64(count)}
}

// A Float64 whose 63 bits round up to 1.0 is drawn again, as math/rand's
// is. The next step is planted to return 2⁶³−1 or 2⁶³−512, the smallest
// value that rounds up, on two copies of one source; 2⁶³−513 rounds down
// and is kept.
func TestFloat64RedrawsOne(t *testing.T) {
	for _, tc := range []struct {
		x      int64
		redraw bool
	}{{math.MaxInt64, true}, {math.MaxInt64 - 511, true}, {math.MaxInt64 - 512, false}} {
		plant := func() *Source {
			s := NewSource(5)
			for i := 0; i < 1000; i++ {
				s.Uint64()
			}
			tap, feed := s.gen.tap-1, s.gen.feed-1
			if tap < 0 {
				tap += rngLen
			}
			if feed < 0 {
				feed += rngLen
			}
			s.gen.vec[tap], s.gen.vec[feed] = 0, tc.x
			return s
		}
		ref := plant()
		want := rand.New(ref).Float64()
		_, wantCount := ref.Pos()

		for name, draw := range map[string]func(*Source) float64{
			"Float64": func(s *Source) float64 {
				f, c := s.cursor().Float64()
				c.Close()
				return f
			},
			"Float64s": func(s *Source) float64 {
				var f [1]float64
				s.cursor().Float64s(f[:]).Close()
				return f[0]
			},
		} {
			s := plant()
			got := draw(s)
			_, count := s.Pos()
			if math.Float64bits(got) != math.Float64bits(want) || count != wantCount {
				t.Fatalf("x = %#x: %s drew %v after %d steps, math/rand %v after %d", tc.x, name, got, count-1000, want, wantCount-1000)
			}
			if steps := count - 1000; (steps == 2) != tc.redraw || got >= 1 {
				t.Fatalf("x = %#x: %s took %d steps for %v", tc.x, name, steps, got)
			}
		}
	}
}

// FuzzCursorMatchesStdlib runs Poisson passes of the fuzzed rate over
// the fuzzed window, with single draws and Float64s passes between them
// as mix's bits say, and requires math/rand's per-draw stream and the
// same position throughout.
func FuzzCursorMatchesStdlib(f *testing.F) {
	f.Add(int64(1), 1500.0, 1.0, uint64(0))
	f.Add(int64(-9), 40000.0, 0.25, uint64(0xdeadbeef))
	f.Add(int64(0), 0.5, 3.0, uint64(0x123456789abcdef))
	f.Add(int64(math.MaxInt64), 1e6, 0.01, ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, rate, window float64, mix uint64) {
		// At most ~10⁵ arrivals a pass, so an input runs in milliseconds.
		if !(rate > 0) || !(window > 0) || rate*window > 1e5 || math.IsInf(rate, 0) {
			t.Skip()
		}
		ours, ref := New(seed), rand.New(rand.NewSource(seed))
		var at, marks, wantAt, wantMarks []float64
		start := 10.0
		for step := 0; step < 8; step++ {
			c := ours.Cursor()
			at, marks, c = c.Poisson(at[:0], marks[:0], start, start+window, rate, 0.3, 1.7)
			wantAt, wantMarks = refPoisson(ref, wantAt[:0], wantMarks[:0], start, start+window, rate, 0.3, 1.7)
			if !sameBits(at, wantAt) || !sameBits(marks, wantMarks) {
				t.Fatalf("step %d: Poisson drew %d arrivals, math/rand's loop %d, or their values differ", step, len(at), len(wantAt))
			}
			var a, b float64
			switch mix >> (8 * step) & 7 {
			case 0:
				a, c = c.ExpFloat64()
				b = ref.ExpFloat64()
			case 1:
				a, c = c.NormFloat64()
				b = ref.NormFloat64()
			case 2:
				a, c = c.Float64()
				b = ref.Float64()
			case 3:
				fs := make([]float64, 1+int(mix>>(8*step+3)&31))
				c = c.Float64s(fs)
				a, b = fs[len(fs)-1], 0
				for range fs {
					b = ref.Float64()
				}
			}
			c.Close()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: draw %v, math/rand's %v", step, a, b)
			}
			if x, y := ours.Int63(), ref.Int63(); x != y {
				t.Fatalf("step %d: stream diverged: %d vs %d", step, x, y)
			}
			start += window
		}
	})
}
