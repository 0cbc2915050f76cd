package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The packed and grouped products' contract is the tiles' own: bitwise
// equality with the naive a·b and its epilogue, at every kernel tier.
// These tests are the mat-layer half of the pooled-vs-solo golden
// differential — the bdq pool tests build on them.

func TestMulPackedBiasActMatchesMulBiasAct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 22, 512},  // batch-1 select: the fused row kernel
		{3, 22, 512},  // under four rows, ragged tile edge
		{8, 512, 256}, // one 8-row tile
		{64, 256, 128},
		{5, 128, 18}, // ragged n
		{1, 0, 7},    // degenerate depth
		{4, 7, 0},    // degenerate width
	}
	for _, sh := range shapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		bias := make([]float64, sh.n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		fuzzFill(bias, rng)

		for _, act := range []Activation{ActIdentity, ActReLU} {
			want := New(sh.m, sh.n)
			naiveMul(want, a, b)
			naiveBiasAct(want, bias, act)
			withKernels(t, func(kernel string) {
				pb := PackB(b)
				got := New(sh.m, sh.n)
				fuzzFill(got.Data, rng)
				MulPackedBiasAct(got, a, nil, pb, bias, act, nil)
				requireBitsEqual(t, "MulPackedBiasAct/"+kernel, got, want)

				// RepackFrom reuses the buffer and stays identical.
				pb.RepackFrom(b)
				MulPackedBiasAct(got, a, nil, pb, bias, act, nil)
				requireBitsEqual(t, "RepackFrom/"+kernel, got, want)
			})
		}
	}
}

func TestMulGroupedBiasActMatchesPerAgent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct{ groups, rowsPer, k, n int }{
		{36, 1, 22, 512},  // fleet batch-1 select, S=36
		{8, 1, 512, 256},  // trunk second layer
		{4, 3, 22, 512},   // narrow bands below mr
		{3, 32, 256, 128}, // wide bands (per-band tiled path)
		{5, 4, 128, 18},   // exactly mr rows per band
		{2, 1, 0, 9},      // degenerate depth
		{2, 2, 9, 0},      // degenerate width
	}
	for _, tc := range cases {
		a := New(tc.groups*tc.rowsPer, tc.k)
		fuzzFill(a.Data, rng)
		groups := make([]Group, tc.groups)
		bs := make([]*Matrix, tc.groups)
		for g := range groups {
			bs[g] = New(tc.k, tc.n)
			fuzzFill(bs[g].Data, rng)
			bias := make([]float64, tc.n)
			fuzzFill(bias, rng)
			groups[g] = Group{Packed: PackB(bs[g]), Bias: bias}
		}

		for _, act := range []Activation{ActIdentity, ActReLU} {
			// Reference: the naive product of each band, exactly the
			// per-agent loop.
			want := New(a.Rows, tc.n)
			for g := range groups {
				r0, r1 := g*tc.rowsPer, (g+1)*tc.rowsPer
				band := want.RowsView(r0, r1)
				naiveMul(band, a.RowsView(r0, r1), bs[g])
				naiveBiasAct(band, groups[g].Bias, act)
			}
			withKernels(t, func(kernel string) {
				got := New(a.Rows, tc.n)
				fuzzFill(got.Data, rng)
				MulGroupedBiasAct(got, a, tc.rowsPer, groups, act)
				requireBitsEqual(t, "grouped/"+kernel, got, want)
			})
		}
	}
}

// TestKernelNameProvenance pins the tier name for every detection state:
// what /status, /metrics and the benchmark's host stamp record is the
// path that ran.
func TestKernelNameProvenance(t *testing.T) {
	saved2, saved512 := haveAVX2, haveAVX512
	defer func() { haveAVX2, haveAVX512 = saved2, saved512 }()
	for _, c := range []struct {
		avx2, avx512 bool
		want         string
	}{
		{false, false, "portable"},
		{true, false, "avx2"},
		{true, true, "avx512"},
	} {
		haveAVX2, haveAVX512 = c.avx2, c.avx512
		if got := KernelName(); got != c.want {
			t.Errorf("KernelName(avx2=%v avx512=%v) = %q, want %q", c.avx2, c.avx512, got, c.want)
		}
	}
}

// TestCPUFeaturesString pins the provenance string shape.
func TestCPUFeaturesString(t *testing.T) {
	saved2, saved512 := haveAVX2, haveAVX512
	defer func() { haveAVX2, haveAVX512 = saved2, saved512 }()
	haveAVX2, haveAVX512 = true, true
	if got := CPUFeatures(); got != "avx2+avx512f" {
		t.Errorf("CPUFeatures = %q", got)
	}
	haveAVX2, haveAVX512 = true, false
	if got := CPUFeatures(); got != "avx2" {
		t.Errorf("CPUFeatures = %q", got)
	}
	haveAVX2, haveAVX512 = false, false
	if got := CPUFeatures(); got != "none" {
		t.Errorf("CPUFeatures = %q", got)
	}
}

func TestRowsView(t *testing.T) {
	m := New(6, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	v := m.RowsView(2, 5)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatalf("RowsView shape %dx%d", v.Rows, v.Cols)
	}
	v.Set(0, 0, -1)
	if m.At(2, 0) != -1 {
		t.Error("RowsView does not share storage")
	}
	f := FromSlice(2, 3, m.Data[:6])
	f.Set(1, 2, -2)
	if m.At(1, 2) != -2 {
		t.Error("FromSlice does not share storage")
	}
}

// TestPackedBHoldsItsOperand holds the panel layout to the row-major
// operand it stands for, at ragged and one-row shapes: At and the runs
// read it back element for element and in row-major order, UnpackInto
// restores it, and RepackFrom and CopyFrom keep Finite what a scan of
// the operand says.
func TestPackedBHoldsItsOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{1, 1}, {1, 11}, {3, 8}, {5, 18}, {7, 9}, {4, 0}, {0, 5}} {
		k, n := sh[0], sh[1]
		b := New(k, n)
		fuzzFill(b.Data, rng)
		pb := PackB(b)
		if pb.K != k || pb.N != n || len(pb.Data) != (n+PanelWidth-1)/PanelWidth*PanelWidth*k {
			t.Fatalf("%dx%d: PackB is %dx%d with %d panel slots", k, n, pb.K, pb.N, len(pb.Data))
		}
		var stream []float64
		for i := 0; i < pb.NumRuns(); i++ {
			stream = append(stream, pb.Run(i)...)
		}
		requireBitsEqual(t, fmt.Sprintf("%dx%d runs", k, n), FromSlice(k, n, stream), b)
		requireBitsEqual(t, fmt.Sprintf("%dx%d UnpackInto", k, n), unpack(pb), b)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(pb.At(i, j)) != math.Float64bits(b.At(i, j)) {
					t.Fatalf("%dx%d: At(%d, %d) = %v, want %v", k, n, i, j, pb.At(i, j), b.At(i, j))
				}
			}
		}
		if k == 0 || n == 0 {
			continue
		}
		if !pb.Finite {
			t.Fatalf("%dx%d: finite operand packs with Finite unset", k, n)
		}
		i, j := rng.Intn(k), rng.Intn(n)
		v := b.At(i, j)
		b.Set(i, j, math.NaN())
		pb.RepackFrom(b)
		cp := NewPackedB(k, n)
		cp.CopyFrom(pb)
		if pb.Finite || cp.Finite || !math.IsNaN(cp.At(i, j)) {
			t.Fatalf("%dx%d: a NaN at (%d, %d) packs with Finite %t, copies with %t and reads back %v", k, n, i, j, pb.Finite, cp.Finite, cp.At(i, j))
		}
		b.Set(i, j, v)
		pb.RepackFrom(b)
		if cp.CopyFrom(pb); !cp.Finite {
			t.Fatalf("%dx%d: CopyFrom of a finite operand leaves Finite unset", k, n)
		}
		requireBitsEqual(t, fmt.Sprintf("%dx%d copy", k, n), unpack(cp), b)
	}
}

// unpack returns the operand pb holds as a new row-major matrix.
func unpack(pb *PackedB) *Matrix {
	m := New(pb.K, pb.N)
	pb.UnpackInto(m)
	return m
}
