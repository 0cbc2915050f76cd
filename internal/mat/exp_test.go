package mat_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/sim/service"
)

// requireExpBits runs mat.Exp over a copy of in and requires every
// element to carry math.Exp's bits, NaN payloads included.
func requireExpBits(t testing.TB, tag string, in []float64) {
	t.Helper()
	got := slices.Clone(in)
	mat.Exp(got)
	for i, x := range in {
		if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: element %d of %d: Exp(%v = %#x) = %#x, math.Exp %#x",
				tag, i, len(in), x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// expSpecials are inputs off the kernel's path or at its edge: the
// range (−700, 700)'s bounds ±1 ulp, archExp's overflow and underflow
// branches, subnormals, ±0, ±Inf and NaNs with assorted payloads.
func expSpecials() []float64 {
	var xs []float64
	for _, e := range []float64{700, -700, 709.782712893384, -745.1332191019412, -708.39} {
		xs = append(xs, math.Nextafter(e, 0), e, math.Nextafter(e, 2*e))
	}
	for _, b := range []uint64{
		0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001, 0x800FFFFFFFFFFFFF, // subnormals
		0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, // ±0, ±Inf
		0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000abc, 0x7FFFFFFFFFFFFFFF, // NaNs
		0xFFF8000000000000, 0xFFF0000000000001, 0xFFFC0000DEADBEEF,
	} {
		xs = append(xs, math.Float64frombits(b))
	}
	return xs
}

func TestExpMatchesMathExp(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && mat.ExpKernelRuns() != mat.HaveFMA() {
		t.Fatalf("ExpKernelRuns() = %v with HaveFMA() = %v: math.Exp is not on the runtime's FMA path", mat.ExpKernelRuns(), mat.HaveFMA())
	}
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]float64{}
	// Every profile's work exponents, lnMu + σ·z as NewInstance derives
	// lnMu, on a small, the reference and a large socket.
	for _, name := range service.Names() {
		p := service.MustLookup(name)
		for _, cores := range []int{4, 18, 64} {
			lnMu := math.Log(p.MeanWork(cores)) - p.WorkSigma*p.WorkSigma/2
			xs := make([]float64, 4096)
			for i := range xs {
				xs[i] = lnMu + p.WorkSigma*rng.NormFloat64()
			}
			cases[fmt.Sprintf("%s on %d cores", name, cores)] = xs
		}
	}
	// ±(0, 710]: a grid and uniform draws, both signs.
	var sweep []float64
	for i := 1; i <= 71000; i++ {
		sweep = append(sweep, float64(i)/100, -float64(i)/100)
	}
	for i := 0; i < 200000; i++ {
		x := 710 * (1 - rng.Float64())
		sweep = append(sweep, x, -x)
	}
	cases["±(0, 710]"] = sweep
	cases["specials"] = expSpecials()

	mat.WithKernels(t, func(kernel string) {
		for name, xs := range cases {
			requireExpBits(t, kernel+"/"+name, xs)
		}
		// Lengths 0–67 of in-range values, then each special at each
		// position: first, last or inside a vector, or in the tail.
		for n := 0; n <= 67; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 40 * rng.NormFloat64()
			}
			requireExpBits(t, fmt.Sprintf("%s/length %d", kernel, n), xs)
			for _, s := range expSpecials() {
				for j := range xs {
					planted := slices.Clone(xs)
					planted[j] = s
					requireExpBits(t, fmt.Sprintf("%s/length %d, %v at %d", kernel, n, s, j), planted)
				}
			}
		}
	})
}

// FuzzExpMatchesMathExp feeds raw bit patterns, eight bytes an element.
func FuzzExpMatchesMathExp(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-4.4)))
	seed := []byte{}
	for _, x := range append(expSpecials(), 1, -1, 699.9, -699.9, 0.5, -7) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		mat.WithKernels(t, func(kernel string) { requireExpBits(t, kernel, xs) })
	})
}

// BenchmarkExp: one interval's work exponents of masstree near its
// calibration load (~2 000 requests) per op.
func BenchmarkExp(b *testing.B) {
	p := service.MustLookup("masstree")
	lnMu := math.Log(p.MeanWork(18)) - p.WorkSigma*p.WorkSigma/2
	rng := rand.New(rand.NewSource(1))
	args := make([]float64, 2000)
	for i := range args {
		args[i] = lnMu + p.WorkSigma*rng.NormFloat64()
	}
	xs := make([]float64, len(args))
	mat.WithKernels(b, func(kernel string) {
		b.Run(kernel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, args)
				mat.Exp(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
		})
	})
}
