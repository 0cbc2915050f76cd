package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential fuzzing of the tiled GEMM path against the retained naive
// kernels (mulRange / mulTransARange / mulTransBRange). The contract is
// bitwise equality — math.Float64bits, not tolerance — for arbitrary
// shapes (including 0-row/0-col and non-multiples of the 4×8 tile),
// data with exact zeros (exercising the skip path), and every kernel
// tier the host has: portable, AVX2, AVX-512.
//
// That is the contract for finite operands. With an Inf or a NaN in the
// b operand the tiled Mul/MulTransA family may differ from the naive
// kernels in one direction only (DESIGN.md, "Determinism and the
// non-finite contract"): the naive kernels step
// over every ±0 element of a and so hide the non-finite b element under
// it, the tiled ones hide it only in columns of a that are ±0 in every
// row, and elsewhere compute 0·Inf = NaN. So an element is either the
// oracle's bit for bit or NaN, and a NaN of the oracle's is never lost.
// MulTransB hides nothing in either form and stays exact.

// fuzzFill deterministically fills data from the seed, planting exact
// zeros, negative zeros, denormals and large-magnitude values so the
// skip logic and rounding behaviour are both exercised.
func fuzzFill(data []float64, rng *rand.Rand) {
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = math.Copysign(0, -1)
		case 2:
			data[i] = rng.NormFloat64() * 1e-308 // denormal-ish
		case 3:
			data[i] = rng.NormFloat64() * 1e150
		default:
			data[i] = rng.NormFloat64()
		}
	}
}

// clampDim maps a raw fuzz byte to a dimension in [0, 67], covering
// empty matrices, the minPackRows boundary and ragged tile edges.
func clampDim(b byte) int { return int(b) % 68 }

// requireBitsEqual fails if got and want differ in any bit.
func requireBitsEqual(t *testing.T, tag string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d: got %x (%v) want %x (%v)",
				tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// plantNonFinite overwrites a few elements of data with ±Inf and NaN.
func plantNonFinite(data []float64, rng *rand.Rand) {
	if len(data) == 0 {
		return
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		data[rng.Intn(len(data))] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}
}

// killColumns zeroes (±0) whole columns of m with probability frac each.
func killColumns(m *Matrix, frac float64, rng *rand.Rand) {
	for c := 0; c < m.Cols; c++ {
		if rng.Float64() >= frac {
			continue
		}
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, math.Copysign(0, float64(rng.Intn(2))-0.5))
		}
	}
}

// requireBitsEqualOrNaN is the non-finite contract of the skip family:
// every element equals the oracle's bit for bit or is NaN.
func requireBitsEqualOrNaN(t *testing.T, tag string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !math.IsNaN(g) {
			t.Fatalf("%s: element %d: got %x (%v), neither the oracle's %x (%v) nor NaN",
				tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// requireBitsEqualNaNsAlike is bitwise equality that lets two NaNs
// differ in sign and payload: the exact contract of MulTransB, whose
// tiled and Dot forms meet the same NaNs in a different operand order.
func requireBitsEqualNaNsAlike(t *testing.T, tag string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d: got %x (%v) want %x (%v)",
				tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// withKernels runs fn under every kernel tier this CPU has — the portable
// Go path, the AVX2 tiles alone, then the AVX-512 tiles over them — and
// restores the detected default.
func withKernels(t testing.TB, fn func(kernel string)) {
	t.Helper()
	saved2, saved512 := haveAVX2, haveAVX512
	defer func() { haveAVX2, haveAVX512 = saved2, saved512 }()
	haveAVX2, haveAVX512 = false, false
	fn("portable")
	if saved2 {
		haveAVX2 = true
		fn("avx2")
	}
	if saved512 {
		haveAVX512 = true
		fn("avx512")
	}
}

func FuzzMulMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(22), byte(512%68))
	f.Add(int64(2), byte(1), byte(22), byte(512%68))
	f.Add(int64(3), byte(0), byte(5), byte(7))
	f.Add(int64(4), byte(9), byte(0), byte(9))
	f.Add(int64(5), byte(9), byte(9), byte(0))
	f.Add(int64(6), byte(7), byte(3), byte(11)) // below minPackRows
	f.Add(int64(7), byte(8), byte(1), byte(8))  // exactly at the gate
	f.Add(int64(8), byte(13), byte(5), byte(17))
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb byte) {
		m, k, n := clampDim(mb), clampDim(kb), clampDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a := New(m, k)
		b := New(k, n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		// Second pass: the same operands with dead a columns and Inf/NaN
		// planted in b, held to the non-finite contract.
		for _, finite := range []bool{true, false} {
			requireMul := requireBitsEqual
			requireTransB := requireBitsEqual
			if !finite {
				killColumns(a, 0.3, rng)
				plantNonFinite(b.Data, rng)
				requireMul = requireBitsEqualOrNaN
				requireTransB = requireBitsEqualNaNsAlike
			}

			want := New(m, n)
			mulRange(want, a, b, 0, m) // retained naive reference

			// MulTransB against its naive reference, reusing the same
			// operands: dst2 = a·(bᵀ)ᵀ needs b transposed.
			bt := New(n, k)
			for i := 0; i < k; i++ {
				for j := 0; j < n; j++ {
					bt.Set(j, i, b.At(i, j))
				}
			}
			want2 := New(m, n)
			mulTransBRange(want2, a, bt, 0, m, nil, false)

			withKernels(t, func(kernel string) {
				got := New(m, n)
				fuzzFill(got.Data, rng) // ensure dst is fully overwritten
				Mul(got, a, b)
				requireMul(t, "Mul/"+kernel, got, want)

				got2 := New(m, n)
				fuzzFill(got2.Data, rng)
				MulTransB(got2, a, bt)
				requireTransB(t, "MulTransB/"+kernel, got2, want2)
			})
		}
	})
}

func FuzzMulTransAMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(512%68), byte(256%68))
	f.Add(int64(2), byte(64), byte(18), byte(18))
	f.Add(int64(3), byte(0), byte(5), byte(7))
	f.Add(int64(4), byte(9), byte(0), byte(9))
	f.Add(int64(5), byte(9), byte(9), byte(0))
	f.Add(int64(6), byte(3), byte(7), byte(11)) // dst rows below minPackRows
	f.Add(int64(7), byte(5), byte(8), byte(8))  // exactly at the gate
	f.Fuzz(func(t *testing.T, seed int64, kb, mb, nb byte) {
		k, m, n := clampDim(kb), clampDim(mb), clampDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a := New(k, m) // dst = aᵀ·b is m×n
		b := New(k, n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		// Second pass: dead a columns (dead destination rows) and Inf/NaN
		// planted in b, held to the non-finite contract.
		for _, finite := range []bool{true, false} {
			require := requireBitsEqual
			if !finite {
				killColumns(a, 0.3, rng)
				plantNonFinite(b.Data, rng)
				require = requireBitsEqualOrNaN
			}

			want := New(m, n)
			mulTransARange(want, a, b, 0, m) // retained naive reference

			// The accumulate variant's reference is the unfused pair it
			// replaces — tmp = aᵀ·b (naive), dst += 1·tmp — starting from
			// a non-trivial dst.
			dst0 := New(m, n)
			fuzzFill(dst0.Data, rng)
			wantAcc := dst0.Clone()
			wantAcc.AddScaled(1, want)

			withKernels(t, func(kernel string) {
				got := New(m, n)
				fuzzFill(got.Data, rng)
				MulTransA(got, a, b)
				require(t, "MulTransA/"+kernel, got, want)

				gotAcc := dst0.Clone()
				MulTransAAcc(gotAcc, a, nil, b, nil)
				require(t, "MulTransAAcc/"+kernel, gotAcc, wantAcc)
			})
		}
	})
}

// FuzzLiveColumnsMatchesNaive aims the differential at the live-column
// machinery: a operands with whole columns and rows of ±0 at a fuzzed
// rate (none, some, all), per-element zeros and denormals on top, ragged
// tiles and last tiles of one to three rows, every entry point that
// scans — Mul, the packed product with bias and ReLU over a row band,
// MulTransA with and without accumulation, MulTransB — under every
// kernel tier. Finite operands, bitwise.
func FuzzLiveColumnsMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(60), byte(40), byte(110)) // ~43 % dead
	f.Add(int64(2), byte(64), byte(33), byte(17), byte(180)) // ~70 % dead
	f.Add(int64(3), byte(9), byte(12), byte(8), byte(255))   // every column dead
	f.Add(int64(4), byte(13), byte(21), byte(9), byte(0))    // none dead
	f.Add(int64(5), byte(6), byte(67), byte(67), byte(128))  // below minPackRows: packed entry point only
	f.Add(int64(6), byte(67), byte(5), byte(1), byte(90))    // thin output, three-row last tile
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb, deadb byte) {
		m, k, n := clampDim(mb), clampDim(kb), clampDim(nb)
		frac := float64(deadb) / 255
		rng := rand.New(rand.NewSource(seed))
		a, b, bt, c := New(m, k), New(k, n), New(n, k), New(m, n)
		for _, x := range []*Matrix{a, b, bt, c} {
			fuzzFill(x.Data, rng)
		}
		killColumns(a, frac, rng)
		killColumns(c, frac, rng) // dead b columns: MulTransA's other operand
		for r := 0; r < m; r++ {  // dead rows, which no scan may mistake for columns
			if rng.Float64() < frac/2 {
				clear(a.Row(r))
			}
		}
		bias := make([]float64, n)
		fuzzFill(bias, rng)

		wantMul := New(m, n)
		mulRange(wantMul, a, b, 0, m)
		wantAct := wantMul.Clone()
		biasActRange(wantAct, 0, m, bias, ActReLU)
		wantTB := New(m, n)
		mulTransBRange(wantTB, a, bt, 0, m, nil, false)
		wantTA := New(k, n) // aᵀ·c
		mulTransARange(wantTA, a, c, 0, k)
		dst0 := New(k, n)
		fuzzFill(dst0.Data, rng)
		wantAcc := dst0.Clone()
		wantAcc.AddScaled(1, wantTA)
		// A band of the packed product: rows [lo, m), the rest untouched.
		lo := 0
		if m > 0 {
			lo = rng.Intn(m)
		}

		withKernels(t, func(kernel string) {
			got := New(m, n)
			fuzzFill(got.Data, rng)
			Mul(got, a, b)
			requireBitsEqual(t, "Mul/"+kernel, got, wantMul)

			if k > 0 && n > 0 {
				pb := PackB(b)
				fuzzFill(got.Data, rng)
				if live := MulPackedBiasAct(got, a, nil, pb, bias, ActReLU); live < 0 || live > k {
					t.Fatalf("MulPackedBiasAct reports %d live columns of %d", live, k)
				}
				requireBitsEqual(t, "MulPackedBiasAct/"+kernel, got, wantAct)
				got.Zero()
				mulPackedInto(got, a, nil, pb.Data, lo, m, bias, ActReLU)
				requireBitsEqual(t, "mulPackedInto band/"+kernel, got.RowsView(lo, m), wantAct.RowsView(lo, m))
				if lo > 0 && got.RowsView(0, lo).MaxAbs() != 0 {
					t.Fatalf("mulPackedInto wrote above its band")
				}
			}

			fuzzFill(got.Data, rng)
			MulTransB(got, a, bt)
			requireBitsEqual(t, "MulTransB/"+kernel, got, wantTB)

			gotTA := New(k, n)
			fuzzFill(gotTA.Data, rng)
			MulTransA(gotTA, a, c)
			requireBitsEqual(t, "MulTransA/"+kernel, gotTA, wantTA)
			gotAcc := dst0.Clone()
			MulTransAAcc(gotAcc, a, nil, c, nil)
			requireBitsEqual(t, "MulTransAAcc/"+kernel, gotAcc, wantAcc)
		})
	})
}

// deadColumnsOf reports which columns of m are ±0 in every row.
func deadColumnsOf(m *Matrix) []bool {
	dead := make([]bool, m.Cols)
	for c := range dead {
		dead[c] = true
		for r := 0; r < m.Rows; r++ {
			dead[c] = dead[c] && m.At(r, c) == 0
		}
	}
	return dead
}

// FuzzMulTransALiveBlockMatchesNaive aims at the column half of the
// live × live block: dead columns at fuzzed rates in both operands of
// dst (+)= aᵀ·b, so the product settles dead rows and dead columns and
// packs the rest, with and without sets the caller holds. Finite
// operands: bitwise the naive kernel. Then Inf and NaN planted in a: a
// dead column of b may hide them — its destination column then reads the
// settled +0 (dst + 0 when accumulating) where the oracle reads NaN — and
// everything else is still the oracle's bit for bit (two NaNs may differ
// in sign and payload, which follow the operand order of each addition).
func FuzzMulTransALiveBlockMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(40), byte(60), byte(110), byte(110)) // both ~43 % dead
	f.Add(int64(2), byte(32), byte(22), byte(67), byte(0), byte(180))   // b ~70 % dead
	f.Add(int64(3), byte(9), byte(12), byte(17), byte(80), byte(255))   // every b column dead
	f.Add(int64(4), byte(5), byte(8), byte(24), byte(40), byte(100))    // exactly at the gate
	f.Add(int64(5), byte(16), byte(7), byte(33), byte(0), byte(128))    // dst rows below minPackRows
	f.Fuzz(func(t *testing.T, seed int64, kb, mb, nb, deadAb, deadBb byte) {
		k, m, n := clampDim(kb), clampDim(mb), clampDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a, b := New(k, m), New(k, n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		killColumns(a, float64(deadAb)/255, rng)
		killColumns(b, float64(deadBb)/255, rng)
		deadB := deadColumnsOf(b)
		dst0 := New(m, n)
		fuzzFill(dst0.Data, rng)
		for _, finite := range []bool{true, false} {
			if !finite {
				plantNonFinite(a.Data, rng)
			}
			want := New(m, n)
			mulTransARange(want, a, b, 0, m)
			wantAcc := dst0.Clone()
			wantAcc.AddScaled(1, want)
			require := func(tag string, got, want, settled *Matrix) {
				t.Helper()
				for i, w := range want.Data {
					g := got.Data[i]
					if math.Float64bits(g) == math.Float64bits(w) || !finite && math.IsNaN(g) && math.IsNaN(w) {
						continue
					}
					if !finite && deadB[i%n] && math.Float64bits(g) == math.Float64bits(settled.Data[i]) {
						continue
					}
					t.Fatalf("%s: element %d: got %x (%v) want %x (%v)", tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
				}
			}
			zeros := New(m, n)
			settledAcc := dst0.Clone()
			settledAcc.AddScaled(1, zeros) // dst + (+0)
			withKernels(t, func(kernel string) {
				got := New(m, n)
				fuzzFill(got.Data, rng)
				MulTransA(got, a, b)
				require("MulTransA/"+kernel, got, want, zeros)
				var al, bl Live
				for _, held := range []bool{false, true, true} { // the second held pass reuses the scans
					got.CopyFrom(dst0)
					if held {
						MulTransAAcc(got, a, &al, b, &bl)
					} else {
						MulTransAAcc(got, a, nil, b, nil)
					}
					require(fmt.Sprintf("MulTransAAcc/%s/held=%t", kernel, held), got, wantAcc, settledAcc)
				}
			})
		}
	})
}

// FuzzMulTransBGatedMatchesNaive: dst (+)= a·bᵀ in the destination columns
// a fuzzed gate lists, the rest +0, with dead columns in a (the depth the
// product skips), stored over stale values and accumulated, with and
// without a held set of a. Finite operands: bitwise the naive kernel in
// the listed columns. Then Inf and NaN planted in both operands: a listed
// column still hides nothing (NaNs may differ in payload), an unlisted one
// reads +0 whatever its row of b holds.
func FuzzMulTransBGatedMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(40), byte(60), byte(110), byte(110))
	f.Add(int64(2), byte(32), byte(33), byte(67), byte(180), byte(60))
	f.Add(int64(3), byte(9), byte(12), byte(17), byte(80), byte(255)) // every column gated off
	f.Add(int64(4), byte(8), byte(1), byte(9), byte(0), byte(0))      // nothing dead anywhere
	f.Add(int64(5), byte(7), byte(21), byte(13), byte(90), byte(128)) // below minPackRows: streaming
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb, deadAb, deadOutb byte) {
		m, k, n := clampDim(mb), clampDim(kb), clampDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a, b, in := New(m, k), New(n, k), New(m, n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		fuzzFill(in.Data, rng)
		killColumns(a, float64(deadAb)/255, rng)
		killColumns(in, float64(deadOutb)/255, rng)
		gated := deadColumnsOf(in)
		dst0 := New(m, n)
		fuzzFill(dst0.Data, rng)
		for _, finite := range []bool{true, false} {
			require := requireBitsEqual
			if !finite {
				plantNonFinite(a.Data, rng)
				plantNonFinite(b.Data, rng)
				require = requireBitsEqualNaNsAlike
			}
			want := New(m, n)
			mulTransBRange(want, a, b, 0, m, nil, false)
			for i := range want.Data {
				if gated[i%n] {
					want.Data[i] = 0
				}
			}
			wantAcc := dst0.Clone()
			for i, w := range want.Data {
				wantAcc.Data[i] += w
			}
			withKernels(t, func(kernel string) {
				gate := scanned(in)
				var al Live
				for _, held := range []*Live{nil, &al, &al} {
					got := New(m, n)
					fuzzFill(got.Data, rng)
					MulTransBLive(got, a, held, b, gate, false)
					require(t, fmt.Sprintf("MulTransBLive/%s/held=%t", kernel, held != nil), got, want)
					got.CopyFrom(dst0)
					MulTransBLive(got, a, held, b, gate, true)
					require(t, fmt.Sprintf("MulTransBLive acc/%s/held=%t", kernel, held != nil), got, wantAcc)
				}
			})
		}
	})
}
