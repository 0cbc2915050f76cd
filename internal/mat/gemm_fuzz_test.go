package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential fuzzing of the three products — MulPackedBiasAct,
// MulTransALive, MulTransBPacked — and the wrappers over them against the
// naive kernels (naive_test.go). The contract is bitwise equality —
// math.Float64bits, not tolerance — for arbitrary shapes (including
// 0-row/0-col and non-multiples of the 4×8 tile), data with exact zeros
// (exercising the skip path), and every kernel tier the host has:
// portable, AVX2, AVX-512. An accumulating product owes the oracle's bits
// wherever its destination held no −0 (MulTransBPacked's accumulation
// precondition).
//
// That is the contract for finite operands. With an Inf or a NaN in the
// b operand the forward product and MulTransALive may differ from the
// naive kernels in one direction only (DESIGN.md, "Determinism and the
// non-finite contract"): the naive kernels step over every ±0 element of
// a and so hide the non-finite b element under it, the tiles hide it only
// in columns of a that are ±0 in every row, and elsewhere compute
// 0·Inf = NaN. So an element is either the oracle's bit for bit or NaN,
// and a NaN of the oracle's is never lost. MulTransBPacked hides nothing
// in either form and stays exact.

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
// empty matrices, the four- and eight-row tiles and ragged tile edges.
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
// differ in sign and payload: the exact contract of MulTransBPacked,
// whose tiles and Dot meet the same NaNs in a different operand order.
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

// FuzzMulMatchesNaive drives the forward product and g·Wᵀ
// (MulTransBPacked, over the same operands transposed) against the naive
// kernels.
func FuzzMulMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(22), byte(512%68))
	f.Add(int64(2), byte(1), byte(22), byte(512%68))
	f.Add(int64(3), byte(0), byte(5), byte(7))
	f.Add(int64(4), byte(9), byte(0), byte(9))
	f.Add(int64(5), byte(9), byte(9), byte(0))
	f.Add(int64(6), byte(7), byte(3), byte(11)) // two four-row tiles, one row repeated
	f.Add(int64(7), byte(8), byte(1), byte(8))  // one 8-row tile
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
			naiveMul(want, a, b)

			// dst2 = a·(bᵀ)ᵀ, from the panels of b transposed.
			bt := New(n, k)
			for i := 0; i < k; i++ {
				for j := 0; j < n; j++ {
					bt.Set(j, i, b.At(i, j))
				}
			}
			want2 := New(m, n)
			naiveMulTransB(want2, a, bt)
			pb, pbt := PackB(b), PackB(bt)

			withKernels(t, func(kernel string) {
				got := New(m, n)
				fuzzFill(got.Data, rng) // ensure dst is fully overwritten
				MulPackedBiasAct(got, a, nil, pb, nil, ActIdentity, nil)
				requireMul(t, "MulPackedBiasAct/"+kernel, got, want)

				got2 := New(m, n)
				fuzzFill(got2.Data, rng)
				MulTransBPacked(got2, a, nil, pbt, nil, false, nil)
				requireTransB(t, "MulTransBPacked/"+kernel, got2, want2)
			})
		}
	})
}

// FuzzMulTransAMatchesNaive drives dW = xᵀ·g (MulTransALive) against the
// naive kernel, with and without held sets.
func FuzzMulTransAMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(512%68), byte(256%68))
	f.Add(int64(2), byte(64), byte(18), byte(18))
	f.Add(int64(3), byte(0), byte(5), byte(7))
	f.Add(int64(4), byte(9), byte(0), byte(9))
	f.Add(int64(5), byte(9), byte(9), byte(0))
	f.Add(int64(6), byte(3), byte(7), byte(11)) // dst rows under one 8-row tile
	f.Add(int64(7), byte(5), byte(8), byte(8))  // one 8-row tile
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
			naiveMulTransA(want, a, b)

			withKernels(t, func(kernel string) {
				got := New(m, n)
				var al, bl Live
				for _, held := range []bool{false, true, true} { // the second held pass reuses the scans
					fuzzFill(got.Data, rng)
					if held {
						MulTransALive(got, a, &al, b, &bl, nil)
					} else {
						MulTransALive(got, a, nil, b, nil, nil)
					}
					require(t, fmt.Sprintf("MulTransALive/%s/held=%t", kernel, held), got, want)
				}
			})
		}
	})
}

// FuzzLiveColumnsMatchesNaive aims the differential at the live-column
// machinery: a operands with whole columns and rows of ±0 at a fuzzed
// rate (none, some, all), per-element zeros and denormals on top, ragged
// tiles and last tiles of one to three rows, every entry point that
// scans — Mul, the packed product with bias and ReLU, MulTransA,
// MulTransB — under every kernel tier. Finite operands, bitwise.
func FuzzLiveColumnsMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(60), byte(40), byte(110)) // ~43 % dead
	f.Add(int64(2), byte(64), byte(33), byte(17), byte(180)) // ~70 % dead
	f.Add(int64(3), byte(9), byte(12), byte(8), byte(255))   // every column dead
	f.Add(int64(4), byte(13), byte(21), byte(9), byte(0))    // none dead
	f.Add(int64(5), byte(6), byte(67), byte(67), byte(128))  // two four-row tiles, two rows repeated
	f.Add(int64(6), byte(67), byte(5), byte(1), byte(90))    // thin output, three-row last tile
	f.Add(int64(7), byte(2), byte(30), byte(19), byte(60))   // the two-row row path, a ragged last panel
	f.Add(int64(8), byte(16), byte(48), byte(33), byte(140)) // two 8-row tiles, a one-panel last pass
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
		naiveMul(wantMul, a, b)
		wantAct := wantMul.Clone()
		naiveBiasAct(wantAct, bias, ActReLU)
		wantTB := New(m, n)
		naiveMulTransB(wantTB, a, bt)
		wantTA := New(k, n) // aᵀ·c
		naiveMulTransA(wantTA, a, c)

		withKernels(t, func(kernel string) {
			got := New(m, n)
			fuzzFill(got.Data, rng)
			Mul(got, a, b)
			requireBitsEqual(t, "Mul/"+kernel, got, wantMul)

			if k > 0 && n > 0 {
				pb := PackB(b)
				fuzzFill(got.Data, rng)
				var out Live
				out.Scan(New(1, n)) // a stale set the epilogue replaces
				if live := MulPackedBiasAct(got, a, nil, pb, bias, ActReLU, &out); live < 0 || live > k {
					t.Fatalf("MulPackedBiasAct reports %d live columns of %d", live, k)
				}
				requireBitsEqual(t, "MulPackedBiasAct/"+kernel, got, wantAct)
				requireSameLive(t, "MulPackedBiasAct out set/"+kernel, &out, scanned(got))
			}

			fuzzFill(got.Data, rng)
			MulTransB(got, a, bt)
			requireBitsEqual(t, "MulTransB/"+kernel, got, wantTB)

			gotTA := New(k, n)
			fuzzFill(gotTA.Data, rng)
			MulTransA(gotTA, a, c)
			requireBitsEqual(t, "MulTransA/"+kernel, gotTA, wantTA)
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
// dst = aᵀ·b, so the product settles dead rows and dead columns and packs
// the rest, with and without sets the caller holds. Finite operands:
// bitwise the naive kernel. Then Inf and NaN planted in a: a dead column
// of b may hide them — its destination column then reads the settled +0
// where the oracle reads NaN — and everything else is still the oracle's
// bit for bit (two NaNs may differ in sign and payload, which follow the
// operand order of each addition).
func FuzzMulTransALiveBlockMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(40), byte(60), byte(110), byte(110)) // both ~43 % dead
	f.Add(int64(2), byte(32), byte(22), byte(67), byte(0), byte(180))   // b ~70 % dead
	f.Add(int64(3), byte(9), byte(12), byte(17), byte(80), byte(255))   // every b column dead
	f.Add(int64(4), byte(5), byte(8), byte(24), byte(40), byte(100))    // one 8-row tile
	f.Add(int64(5), byte(16), byte(7), byte(33), byte(0), byte(128))    // dst rows under one 8-row tile
	f.Fuzz(func(t *testing.T, seed int64, kb, mb, nb, deadAb, deadBb byte) {
		k, m, n := clampDim(kb), clampDim(mb), clampDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a, b := New(k, m), New(k, n)
		fuzzFill(a.Data, rng)
		fuzzFill(b.Data, rng)
		killColumns(a, float64(deadAb)/255, rng)
		killColumns(b, float64(deadBb)/255, rng)
		deadB := deadColumnsOf(b)
		for _, finite := range []bool{true, false} {
			if !finite {
				plantNonFinite(a.Data, rng)
			}
			want := New(m, n)
			naiveMulTransA(want, a, b)
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
			withKernels(t, func(kernel string) {
				got := New(m, n)
				fuzzFill(got.Data, rng)
				MulTransA(got, a, b)
				require("MulTransA/"+kernel, got, want, zeros)
				var al, bl Live
				for pass := 1; pass <= 2; pass++ { // the second pass reuses the held scans
					fuzzFill(got.Data, rng)
					MulTransALive(got, a, &al, b, &bl, nil)
					require(fmt.Sprintf("MulTransALive/%s/pass %d", kernel, pass), got, want, zeros)
				}
			})
		}
	})
}

// FuzzMulTransBGatedMatchesNaive: dst (+)= a·bᵀ (MulTransBPacked, b in
// panels) in the destination columns a fuzzed gate lists, with dead
// columns in a (the depth the product skips), stored over stale values —
// the unlisted columns +0 — and accumulated — the unlisted columns as dst
// held them, −0 included — with and without a held set of a, and for
// finite operands with the panels' Finite bit set and cleared. Finite
// operands: bitwise the naive kernel in the listed columns. Then Inf and
// NaN planted in both operands: a listed column still hides nothing
// (NaNs may differ in payload), an unlisted one reads what it would
// whatever its row of b holds.
func FuzzMulTransBGatedMatchesNaive(f *testing.F) {
	f.Add(int64(1), byte(64), byte(40), byte(60), byte(110), byte(110))
	f.Add(int64(2), byte(32), byte(33), byte(67), byte(180), byte(60))
	f.Add(int64(3), byte(9), byte(12), byte(17), byte(80), byte(255)) // every column gated off
	f.Add(int64(4), byte(8), byte(1), byte(9), byte(0), byte(0))      // nothing dead anywhere
	f.Add(int64(5), byte(7), byte(21), byte(13), byte(90), byte(128)) // two four-row tiles, one row repeated
	f.Add(int64(6), byte(16), byte(64), byte(48), byte(0), byte(0))   // W transposed in whole 8 × 8 blocks only
	f.Add(int64(7), byte(9), byte(45), byte(27), byte(120), byte(80)) // blocks from a depth list, a ragged last block, a keep list
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
			naiveMulTransB(want, a, b)
			for i := range want.Data {
				if gated[i%n] {
					want.Data[i] = 0
				}
			}
			wantAcc := dst0.Clone()
			for i, w := range want.Data {
				if !gated[i%n] {
					wantAcc.Data[i] += w
				}
			}
			pb := PackB(b) // Finite is what b's scan says
			knowns := []bool{false}
			if finite {
				knowns = append(knowns, true) // b vouched for: only when it is finite
			}
			withKernels(t, func(kernel string) {
				gate := scanned(in)
				var al Live
				for _, known := range knowns {
					pb.Finite = known
					for _, held := range []*Live{nil, &al, &al} {
						tag := fmt.Sprintf("%s/held=%t/finite=%t", kernel, held != nil, known)
						got := New(m, n)
						fuzzFill(got.Data, rng)
						MulTransBPacked(got, a, held, pb, gate, false, nil)
						require(t, "MulTransBPacked/"+tag, got, want)
						got.CopyFrom(dst0)
						MulTransBPacked(got, a, held, pb, gate, true, nil)
						require(t, "MulTransBPacked acc/"+tag, got, wantAcc)
					}
				}
			})
		}
	})
}

// FuzzTransposePanelMatchesLoop holds packBTPanels — W's transposed
// panels for g·Wᵀ, 8 × 8 blocks through registers on the AVX-512 tier,
// the Go loop on the others — to the transposition written out element
// by element, on every tier: a ragged In and Out (a last panel whose pad
// lanes repeat its final column, a last block of fewer than eight steps),
// a keep list of W's rows, a depth list of the steps to pack, and ±Inf,
// −0 and NaN with payloads, which must come through as the same bits.
// Every step a depth list names must be packed; the others may hold
// anything.
func FuzzTransposePanelMatchesLoop(f *testing.F) {
	f.Add(int64(1), byte(64), byte(48), byte(0), byte(0)) // whole blocks, every row and step
	f.Add(int64(2), byte(45), byte(27), byte(1), byte(3)) // ragged both ways, keep and depth lists
	f.Add(int64(3), byte(19), byte(6), byte(0), byte(1))  // no whole block: the loop alone
	f.Add(int64(4), byte(33), byte(64), byte(2), byte(1)) // nothing kept
	f.Add(int64(5), byte(7), byte(16), byte(0), byte(0))  // one panel, a depth of two blocks and one step
	f.Fuzz(func(t *testing.T, seed int64, inb, outb, keepb, depthb byte) {
		in, out := 1+clampDim(inb), 1+clampDim(outb)
		rng := rand.New(rand.NewSource(seed))
		w := New(in, out)
		fuzzFill(w.Data, rng)
		plantNonFinite(w.Data, rng)
		for n := rng.Intn(4); n > 0; n-- { // NaNs with payloads and signs of their own
			w.Data[rng.Intn(len(w.Data))] = math.Float64frombits(0x7FF0000000000001 | rng.Uint64()&0x800FFFFFFFFFFFFF)
		}
		pb := PackB(w)
		subset := func(n int) []int32 {
			l := []int32{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					l = append(l, int32(i))
				}
			}
			return l
		}
		var rows, depth []int32
		switch keepb % 3 {
		case 1:
			rows = subset(in)
		case 2:
			rows = []int32{}
		}
		if depthb%2 == 1 {
			depth = subset(out)
		}
		n := span(rows, in)
		panels := (n + nr - 1) / nr
		want := make([]float64, (in+nr-1)/nr*nr*out)
		for p := 0; p < panels; p++ {
			for t := 0; t < out; t++ {
				for jj := 0; jj < nr; jj++ {
					want[p*nr*out+t*nr+jj] = w.At(pick(rows, min(p*nr+jj, n-1)), t)
				}
			}
		}
		steps := depth
		if steps == nil {
			steps = make([]int32, out)
			for t := range steps {
				steps[t] = int32(t)
			}
		}
		withKernels(t, func(kernel string) {
			got := make([]float64, len(want))
			for i := range got {
				got[i] = math.Float64frombits(0x7FF8DEADBEEF0000) // what no step may keep
			}
			packBTPanels(got, pb, rows, depth)
			for p := 0; p < panels; p++ {
				for _, s := range steps {
					for jj := 0; jj < nr; jj++ {
						i := p*nr*out + int(s)*nr + jj
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: In %d Out %d rows %v depth %v: panel %d step %d lane %d holds %x, want %x",
								kernel, in, out, rows, depth, p, s, jj, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		})
	})
}

// FuzzWideTileMatchesKern4x8n aims at the AVX-512 tile itself: a fuzzed
// depth (0–64), one to five panels with a ragged last one, the dense walk
// along rows or down the columns of a transpose (a fuzzed row width
// apart) or the indexed walk over a fuzzed live list, Inf and NaN in the
// panels, and every epilogue — each run both ways kern8x16 serves a
// product (requireWideTile) and held to AVX2 tiles and storeTile.
func FuzzWideTileMatchesKern4x8n(f *testing.F) {
	f.Add(int64(1), byte(64), byte(4), byte(0), byte(0), byte(0)) // four panels, dense, store
	f.Add(int64(2), byte(22), byte(2), byte(0), byte(3), byte(3)) // a pair, down the transpose, bias and ReLU
	f.Add(int64(3), byte(40), byte(4), byte(1), byte(0), byte(4)) // a pair and a last alone, indexed, accumulate
	f.Add(int64(4), byte(0), byte(0), byte(0), byte(1), byte(1))  // depth 0, one panel
	f.Add(int64(5), byte(17), byte(1), byte(2), byte(0), byte(2)) // an empty live list
	f.Fuzz(func(t *testing.T, seed int64, kb, panelsb, liveb, stepb, epb byte) {
		if !haveAVX512 {
			t.Skip("no AVX-512 on this machine (or force-disabled)")
		}
		rng := rand.New(rand.NewSource(seed))
		k := int(kb) % 65
		depth := max(k, 1)
		panels := 1 + int(panelsb)%5
		n := (panels-1)*nr + 1 + rng.Intn(nr)
		c := wideTileCase{astep: 8, k: k, depth: depth, n: n, bp: make([]float64, panels*nr*depth)}
		fuzzFill(c.bp, rng)
		for p := 0; p < panels; p++ {
			plantNonFinite(c.bp[p*nr*depth:(p+1)*nr*depth], rng)
		}
		if k > 0 {
			switch liveb % 3 {
			case 1:
				c.live = []int32{}
				for s := 0; s < k; s++ {
					if rng.Intn(2) == 0 {
						c.live = append(c.live, int32(s))
					}
				}
			case 2:
				c.live = []int32{}
			}
		}
		a := New(zr, depth)
		fuzzFill(a.Data, rng)
		for q := range c.a {
			c.a[q] = &a.Row(q)[0]
		}
		if c.live == nil && stepb%2 == 1 {
			// Down the columns of a wider matrix, as MulTransA reads its operand.
			at := New(depth, zr+int(stepb/2)%5)
			fuzzFill(at.Data, rng)
			for q := range c.a {
				c.a[q] = &at.Data[q]
			}
			c.astep = 8 * at.Cols
		}
		bias := make([]float64, n)
		fuzzFill(bias, rng)
		ep := []epilogue{{}, {act: ActReLU}, {bias: bias}, {bias: bias, act: ActReLU}, {accumulate: true}}[int(epb)%5]
		dst := New(zr, n+3) // three guard columns
		fuzzFill(dst.Data, rng)
		requireWideTile(t, fmt.Sprintf("k=%d n=%d live=%v astep=%d", k, n, c.live, c.astep), &c, dst, &ep)
	})
}
