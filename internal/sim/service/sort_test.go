package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// checkSortRun holds sortRun to its contract on one input: the run it
// returns is, pattern for pattern, what slices.Sort leaves of a copy, and
// the buffer it returns beside it is the other one, free for reuse.
func checkSortRun(t testing.TB, s *Instance, in, lend []float64) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	got, spare := s.sortRun(slices.Clone(in), lend)
	if len(got) != len(want) {
		t.Fatalf("sorted run has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("n = %d: element %d is %#016x (%v), slices.Sort leaves %#016x (%v)", len(in), i, g, got[i], w, want[i])
		}
	}
	if len(got) > 0 && cap(spare) > 0 && &got[0] == &spare[:1][0] {
		t.Fatalf("n = %d: the sorted run and the buffer left over share storage", len(in))
	}
}

// ulpCluster is the shape a quadratic finish cannot survive: n−1 values
// one ulp apart, shuffled, and one outlier at 1e-300 that stretches the
// key range until the whole cluster shares a bucket.
func ulpCluster(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	out[0] = 1e-300
	base := math.Float64bits(0.0015)
	for i := 1; i < n; i++ {
		out[i] = math.Float64frombits(base + uint64(i))
	}
	r.Shuffle(n-1, func(i, j int) { out[1+i], out[1+j] = out[1+j], out[1+i] })
	return out
}

// sortShape is one named input of sortRun.
type sortShape struct {
	name string
	run  []float64
}

// sortShapes is the seed corpus of both the test and the fuzz target:
// everything slices.Sort orders in a way bit patterns do not, the shapes
// that crowd a bucket, and the lengths either side of each threshold.
func sortShapes() []sortShape {
	r := rand.New(rand.NewSource(24))
	sojourns := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Exp(-7 + 1.2*r.NormFloat64())
		}
		return out
	}
	// among puts vs into the middle of forty plausible sojourns, so the run
	// is long enough for the counting pass were the values in its domain.
	among := func(vs ...float64) []float64 { return slices.Insert(sojourns(40), 17, vs...) }
	repeat := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	nan := math.Float64frombits
	negZero := math.Copysign(0, -1)
	descending := sojourns(1000)
	slices.Sort(descending)
	slices.Reverse(descending)
	shapes := []sortShape{
		{"NaNs of both signs and several payloads", among(nan(0x7ff8000000000001), nan(0xfff8000000000000),
			nan(0x7ff0000000000abc), nan(0xffffffffffffffff), math.NaN())},
		{"a NaN last", append(sojourns(40), math.NaN())},
		{"infinities", among(math.Inf(1), math.Inf(-1), math.Inf(1))},
		{"-0 beside +0", among(0, negZero, 0, negZero)},
		{"negatives", among(-1e-3, -5, -math.SmallestNonzeroFloat64)},
		{"subnormals and +0", among(5e-324, 0, 1e-310, 2.2250738585072009e-308, 5e-324)},
		{"largest finite", among(math.MaxFloat64, 0, math.MaxFloat64)},
		{"all equal", repeat(0.00125, 300)},
		{"two distinct values", append(repeat(0.002, 70), repeat(0.001, 90)...)},
		{"descending", descending},
		{"an outlier and a cluster one ulp apart", ulpCluster(r, 5000)},
		{"a crowded bucket among sparse ones", append(ulpCluster(r, 200)[1:], sojourns(200)...)},
		{"consecutive patterns and nothing else", ulpCluster(r, 700)[1:]},
	}
	for _, n := range []int{sortBucketInsertion, sortBucketInsertion + 1, 3 * sortBucketInsertion} {
		shapes = append(shapes, sortShape{fmt.Sprintf("one bucket of %d", n), ulpCluster(r, n+1)})
	}
	for _, n := range []int{0, 1, 2, sortRunMin - 1, sortRunMin, sortRunMin + 1, 63, 64, 65, 1023, 1024, 1025, 32465} {
		shapes = append(shapes, sortShape{fmt.Sprintf("sojourns, n = %d", n), sojourns(n)})
	}
	return shapes
}

func TestSortRunMatchesSlicesSort(t *testing.T) {
	// One instance sorts every shape, so the count array and the lent
	// buffer arrive dirty and of the wrong size, as they do in use.
	s := NewInstance(MustLookup("masstree"), 18, 1)
	var prev []float64
	for _, sh := range sortShapes() {
		t.Run(sh.name, func(t *testing.T) {
			for _, lend := range [][]float64{nil, prev, make([]float64, len(sh.run)/2), make([]float64, 2*len(sh.run))} {
				checkSortRun(t, s, sh.run, lend)
			}
		})
		prev = slices.Clone(sh.run)
	}

	// The crowded bucket is handed to slices.Sort, not to the insertion
	// pass: on 2¹⁷ clustered values that pass would read about 1000×.
	in := ulpCluster(rand.New(rand.NewSource(3)), 1<<17)
	run, lend := make([]float64, len(in)), make([]float64, len(in))
	best := func(sort func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			copy(run, in)
			t0 := time.Now()
			sort()
			d = min(d, time.Since(t0))
		}
		return d
	}
	std := best(func() { slices.Sort(run) })
	got := best(func() { s.sortRun(run, lend) })
	t.Logf("2¹⁷ clustered values: sortRun %v, slices.Sort %v", got, std)
	if got > 3*std {
		t.Errorf("2¹⁷ clustered values: sortRun takes %v, slices.Sort %v; want ≤ 3×", got, std)
	}
}

// FuzzSortRunMatchesSlicesSort feeds sortRun raw 8-byte patterns. mode
// steers them towards the counting pass, which raw bytes rarely reach past
// a few elements: bit 0 clears every sign, bit 1 every top exponent bit (no
// NaN, no Inf), and bit 2 gives every pattern after the second the second
// one's upper 48 bits, so that the first, an outlier, crowds a bucket.
func FuzzSortRunMatchesSlicesSort(f *testing.F) {
	for _, sh := range sortShapes() {
		raw := make([]byte, 0, 8*len(sh.run))
		for _, v := range sh.run {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw, uint8(0))
	}
	text := []byte("Raw text is a run too: these hundred and sixty bytes are twenty patterns, all of them finite and positive once the two top bits are cleared, as modes 3 and 7 do.")
	f.Add(text, uint8(3))
	f.Add(text, uint8(7))
	s := NewInstance(MustLookup("masstree"), 18, 1)
	var lend []float64
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8) {
		in := make([]float64, len(raw)/8)
		for i := range in {
			b := binary.LittleEndian.Uint64(raw[8*i:])
			if mode&1 != 0 {
				b &^= 1 << 63
			}
			if mode&2 != 0 {
				b &^= 1 << 62
			}
			if mode&4 != 0 && i > 1 {
				b = math.Float64bits(in[1])&^(1<<16-1) | b&(1<<16-1)
			}
			in[i] = math.Float64frombits(b)
		}
		checkSortRun(t, s, in, lend)
		lend = in
	})
}
