package mat

import (
	"math/rand"
	"testing"
)

// The grouped/packed path's contract is the same as the tiled one:
// bitwise equality with the per-agent MulBiasAct calls it replaces, at
// every kernel tier. These tests are the mat-layer half of the
// PR 8 golden differential — the bdq pool tests build on them.

func TestMulPackedBiasActMatchesMulBiasAct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 22, 512},  // batch-1 select: streaming per-agent, packed pooled
		{3, 22, 512},  // below minPackRows, ragged tile edge
		{8, 512, 256}, // at the gate
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
			MulBiasAct(want, a, nil, b, bias, act)
			withKernels(t, func(kernel string) {
				pb := PackB(b)
				got := New(sh.m, sh.n)
				fuzzFill(got.Data, rng)
				MulPackedBiasAct(got, a, nil, pb, bias, act)
				requireBitsEqual(t, "MulPackedBiasAct/"+kernel, got, want)

				// RepackFrom reuses the buffer and stays identical.
				pb.RepackFrom(b)
				MulPackedBiasAct(got, a, nil, pb, bias, act)
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
			groups[g] = Group{B: bs[g], Bias: bias}
		}

		for _, act := range []Activation{ActIdentity, ActReLU} {
			// Reference: one MulBiasAct per band, exactly the per-agent loop.
			want := New(a.Rows, tc.n)
			for g := range groups {
				r0 := g * tc.rowsPer
				MulBiasAct(want.RowsView(r0, r0+tc.rowsPer), a.RowsView(r0, r0+tc.rowsPer), nil,
					bs[g], groups[g].Bias, act)
			}
			withKernels(t, func(kernel string) {
				// Raw operands (scratch packing per call).
				got := New(a.Rows, tc.n)
				fuzzFill(got.Data, rng)
				MulGroupedBiasAct(got, a, tc.rowsPer, groups, act)
				requireBitsEqual(t, "grouped-raw/"+kernel, got, want)

				// Persistent packed panels (the pooled select cache).
				packed := make([]Group, len(groups))
				for g := range groups {
					packed[g] = Group{Packed: PackB(bs[g]), Bias: groups[g].Bias}
				}
				fuzzFill(got.Data, rng)
				MulGroupedBiasAct(got, a, tc.rowsPer, packed, act)
				requireBitsEqual(t, "grouped-packed/"+kernel, got, want)
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
		if HaveAVX2() != c.avx2 {
			t.Errorf("HaveAVX2() = %v, want %v", HaveAVX2(), c.avx2)
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
