package rng

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// draw is one method pair: ours (rng.Rand's copy, or rand.Rand's on the
// same source for the methods Rand does not redefine) and the same
// method on a plain math/rand generator. edge, for the two ziggurats, is
// their base strip's edge: only the tail returns a magnitude beyond it.
type draw struct {
	name string
	ours func(*Rand) float64
	ref  func(*rand.Rand) float64
	edge float64
}

var draws = []draw{
	{"Float64", func(r *Rand) float64 { return r.Float64() }, func(r *rand.Rand) float64 { return r.Float64() }, 0},
	{"ExpFloat64", func(r *Rand) float64 { return r.ExpFloat64() }, func(r *rand.Rand) float64 { return r.ExpFloat64() }, 7.69711747013104972},
	{"NormFloat64", func(r *Rand) float64 { return r.NormFloat64() }, func(r *rand.Rand) float64 { return r.NormFloat64() }, 3.442619855899},
	{"Int63", func(r *Rand) float64 { return float64(r.Int63()) }, func(r *rand.Rand) float64 { return float64(r.Int63()) }, 0},
	{"Uint32", func(r *Rand) float64 { return float64(r.Uint32()) }, func(r *rand.Rand) float64 { return float64(r.Uint32()) }, 0},
	{"Uint64", func(r *Rand) float64 { return float64(r.Uint64()) }, func(r *rand.Rand) float64 { return float64(r.Uint64()) }, 0},
	{"Intn", func(r *Rand) float64 { return float64(r.Intn(97)) }, func(r *rand.Rand) float64 { return float64(r.Intn(97)) }, 0},
	{"Int31n", func(r *Rand) float64 { return float64(r.Int31n(1e9 + 7)) }, func(r *rand.Rand) float64 { return float64(r.Int31n(1e9 + 7)) }, 0},
	{"Float32", func(r *Rand) float64 { return float64(r.Float32()) }, func(r *rand.Rand) float64 { return float64(r.Float32()) }, 0},
}

// The owned generator must not perturb the stream: every draw type, in
// any interleaving, matches a raw math/rand generator with the same seed
// — for the seeds Seed's reduction modulo 2³¹−1 treats specially (zero,
// which becomes 89482311, negatives, multiples of int32max, the int64
// extremes), through a reseed, on both ziggurats' tail and wedge
// (rejection) paths, and after a restore at the counts around the
// 607-element register's first wrap and far past it.
func TestStreamMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 89482311, math.MaxInt32, -math.MaxInt32, 2 * math.MaxInt32,
		7 * math.MaxInt32, math.MaxInt32 + 1, -3 * math.MaxInt32, math.MaxInt64, math.MinInt64}
	tail, wedge := map[string]int{}, map[string]int{}
	for _, seed := range seeds {
		ours, ref := New(seed), rand.New(rand.NewSource(seed))
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := 20000
		if seed == 1 {
			n = 1000000
		}
		for i := 0; i < n; i++ {
			if i == n/2 {
				ours.Seed(seed + 1)
				ref.Seed(seed + 1)
			}
			d := draws[mix.Intn(len(draws))]
			_, before := ours.Source().Pos()
			a, b := d.ours(ours), d.ref(ref)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: %s diverged at draw %d: %v vs %v", seed, d.name, i, a, b)
			}
			// More than one source step: the draw left the fast path.
			if _, after := ours.Source().Pos(); d.edge > 0 && after-before > 1 {
				if math.Abs(a) >= d.edge {
					tail[d.name]++
				} else {
					wedge[d.name]++
				}
			}
		}
	}
	for _, name := range []string{"ExpFloat64", "NormFloat64"} {
		if tail[name] == 0 || wedge[name] == 0 {
			t.Errorf("%s: %d tail and %d wedge draws; both paths must run", name, tail[name], wedge[name])
		}
	}

	for _, count := range []int{0, 606, 607, 608, 1000000} {
		orig := New(3)
		for i := 0; i < count; i++ {
			orig.Uint64()
		}
		e := checkpoint.NewEncoder()
		orig.Source().EncodeState(e)
		restored := New(-5) // wrong seed, wrong position
		restored.NormFloat64()
		if err := restored.Source().DecodeState(checkpoint.NewDecoder(e.Bytes())); err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(3))
		for i := 0; i < count; i++ {
			ref.Uint64()
		}
		for i := 0; i < 3000; i++ {
			d := draws[i%len(draws)]
			if a, b := d.ours(restored), d.ref(ref); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("restored at %d: %s diverged %d draws on: %v vs %v", count, d.name, i, a, b)
			}
		}
	}
}

// Restore mid-stream and check the continuation is the exact suffix the
// uninterrupted generator produces.
func TestRoundTripResumesExactly(t *testing.T) {
	orig := New(7)
	for i := 0; i < 137; i++ {
		orig.Float64()
		if i%3 == 0 {
			orig.NormFloat64() // variable draws per call via rejection sampling
		}
	}
	e := checkpoint.NewEncoder()
	orig.Source().EncodeState(e)

	restored := New(999) // wrong seed, wrong position: DecodeState must fix both
	d := checkpoint.NewDecoder(e.Bytes())
	if err := restored.Source().DecodeState(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a, b := orig.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("diverged %d draws after restore: %d vs %d", i, a, b)
		}
	}
	seed, _ := restored.Source().Pos()
	if seed != 7 {
		t.Fatalf("restored seed %d, want 7", seed)
	}
}

func TestDecodeRejectsHostileCount(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.I64(1)
	e.U64(1 << 60) // absurd draw count must error, not hang
	d := checkpoint.NewDecoder(e.Bytes())
	if err := NewSource(0).DecodeState(d); err == nil {
		t.Fatal("hostile draw count accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	d := checkpoint.NewDecoder([]byte{1, 2, 3})
	if err := NewSource(0).DecodeState(d); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
