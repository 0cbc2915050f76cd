package mat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The live × live block of the backward pass (DESIGN.md, "The training
// step and its kernel tiers"), held bit for bit to the naive kernels:
// MulTransA* packing b's live columns only, MulTransBPacked computing the
// destination columns a gate lists and no others, both with the sets the
// caller holds.

// liveExactly makes exactly the listed columns of m live: every other
// column is ±0 in every row, every listed one non-zero in at least one.
func liveExactly(m *Matrix, live []int, rng *rand.Rand) {
	keep := make(map[int]bool, len(live))
	for _, c := range live {
		keep[c] = true
	}
	for c := 0; c < m.Cols; c++ {
		for r := 0; r < m.Rows; r++ {
			switch {
			case !keep[c]:
				m.Set(r, c, math.Copysign(0, float64(rng.Intn(2))-0.5))
			case m.At(r, c) == 0 && r == c%m.Rows:
				m.Set(r, c, 1+rng.Float64())
			}
		}
	}
}

// pickColumns draws count distinct columns of n, ascending.
func pickColumns(n, count int, rng *rand.Rand) []int {
	cols := rng.Perm(n)[:count]
	sort.Ints(cols)
	return cols
}

// scanned returns the live set of m, scanned.
func scanned(m *Matrix) *Live {
	l := &Live{}
	l.Scan(m)
	return l
}

// TestLiveBlockMatchesNaive: live counts on both sides of one and two
// panels, widths that leave a partial panel, stale values planted in dW
// (a dead row of it must read +0) and in the gated destination, under
// every tier.
func TestLiveBlockMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	const batch = 19
	for _, n := range []int{21, 32} { // the operand whose columns are compacted
		for _, liveN := range []int{0, 1, 7, 8, 9, n} {
			for _, m := range []int{8, 13} { // the other operand's width
				tag := fmt.Sprintf("n%d/live%d/m%d", n, liveN, m)
				cols := pickColumns(n, liveN, rng)

				// dW = xᵀ·g: x is batch×m with a dead column of its own,
				// g is batch×n with exactly liveN live columns.
				x, g := New(batch, m), New(batch, n)
				fuzzFill(x.Data, rng)
				fuzzFill(g.Data, rng)
				xLive := pickColumns(m, m-1, rng)
				liveExactly(x, xLive, rng)
				liveExactly(g, cols, rng)
				deadRow := 0 // the column of x left out of xLive
				for deadRow < len(xLive) && xLive[deadRow] == deadRow {
					deadRow++
				}
				wantTA := New(m, n)
				naiveMulTransA(wantTA, x, g)

				// gradIn = g2·Wᵀ: g2 is batch×m, W is n×m, and the gate is
				// the live set of an n-wide input with exactly liveN live
				// columns. The oracle computes every column; the gated
				// product owes +0 wherever the gate is dead.
				g2, w, in := New(batch, m), New(n, m), New(batch, n)
				fuzzFill(g2.Data, rng)
				fuzzFill(w.Data, rng)
				fuzzFill(in.Data, rng)
				liveExactly(g2, pickColumns(m, m-2, rng), rng)
				liveExactly(in, cols, rng)
				full := New(batch, n)
				naiveMulTransB(full, g2, w)
				pw := PackB(w)
				wantTB := New(batch, n)
				for _, c := range cols {
					for r := 0; r < batch; r++ {
						wantTB.Set(r, c, full.At(r, c))
					}
				}
				dst0 := New(batch, n)
				fuzzFill(dst0.Data, rng)
				for c := 0; c < n; c += 3 {
					dst0.Set(c%batch, c, negZero) // a gated column keeps it, a listed one adds its sum
				}
				wantTBAcc := dst0.Clone()
				for _, c := range cols {
					for r := 0; r < batch; r++ {
						wantTBAcc.Set(r, c, dst0.At(r, c)+wantTB.At(r, c))
					}
				}

				withKernels(t, func(kernel string) {
					got := New(m, n)
					fuzzFill(got.Data, rng)
					MulTransA(got, x, g)
					requireBitsEqual(t, "MulTransA/"+kernel+"/"+tag, got, wantTA)
					xl, gl := &Live{}, &Live{}
					// Twice, the second time with the held sets, as the next
					// product would use them.
					for _, pass := range []string{"", " held"} {
						got.Fill(negZero)
						MulTransALive(got, x, xl, g, gl, nil)
						requireBitsEqual(t, "MulTransALive"+pass+"/"+kernel+"/"+tag, got, wantTA)
						for j, v := range got.Row(deadRow) {
							if math.Float64bits(v) != 0 {
								t.Fatalf("%s: MulTransALive%s left dead row %d: [%d] = %v, want +0", tag, pass, deadRow, j, v)
							}
						}
						if c, ok := gl.Count(); !ok || c != liveN {
							t.Fatalf("%s: g's set holds %d live columns (scanned %t), want %d", tag, c, ok, liveN)
						}
					}

					gate := scanned(in)
					gotTB := New(batch, n)
					wantFullAcc := dst0.Clone()
					Add(wantFullAcc, wantFullAcc, full)
					// W is finite: vouching for it changes no bit.
					for _, finite := range []bool{false, true} {
						pw.Finite = finite
						ftag := fmt.Sprintf("%s/%s/finite=%t", kernel, tag, finite)
						for i := range gotTB.Data {
							gotTB.Data[i] = math.NaN() // stale: every element must be written
						}
						MulTransBPacked(gotTB, g2, nil, pw, gate, false, nil)
						requireBitsEqual(t, "MulTransBPacked gated/"+ftag, gotTB, wantTB)
						gotTB.CopyFrom(dst0)
						MulTransBPacked(gotTB, g2, scanned(g2), pw, gate, true, nil)
						requireBitsEqual(t, "MulTransBPacked gated acc/"+ftag, gotTB, wantTBAcc)
						// Ungated and accumulating: every column, added.
						gotTB.CopyFrom(dst0)
						MulTransBPacked(gotTB, g2, nil, pw, nil, true, nil)
						requireBitsEqual(t, "MulTransBPacked acc/"+ftag, gotTB, wantFullAcc)
					}

					// Seven rows, under one 8-row tile (two four-row tiles, the
					// second repeating a row), W read for Inf and NaN: the same
					// contract.
					few := 7
					pw.Finite = false
					gotS := New(few, n)
					gotS.Fill(math.NaN())
					wantS := New(few, n)
					for _, c := range cols {
						for r := 0; r < few; r++ {
							wantS.Set(r, c, full.At(r, c))
						}
					}
					MulTransBPacked(gotS, g2.RowsView(0, few), nil, pw, scanned(in), false, nil)
					requireBitsEqual(t, "MulTransBPacked seven rows/"+kernel+"/"+tag, gotS, wantS)
				})
			}
		}
	}
}

// TestLiveMemo pins what a held set is: unscanned until a product needs
// it (a forward product of fewer than four rows makes no scan), reused as
// it stands until Reset, refused for an operand of another width.
func TestLiveMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(9, 12), New(12, 5)
	fuzzFill(a.Data, rng)
	fuzzFill(b.Data, rng)
	liveExactly(a, []int{1, 4, 5, 11}, rng)
	dst, pb := New(9, 5), PackB(b)
	var l Live
	if _, ok := l.Count(); ok {
		t.Fatal("zero Live claims a scan")
	}
	MulPackedBiasAct(dst.RowsView(0, 3), a.RowsView(0, 3), &l, pb, nil, ActIdentity, nil)
	if _, ok := l.Count(); ok {
		t.Fatal("a three-row product scanned")
	}
	if got := MulPackedBiasAct(dst, a, &l, pb, nil, ActIdentity, nil); got != 4 {
		t.Fatalf("product found %d live columns, want 4", got)
	}
	if n, ok := l.Count(); !ok || n != 4 {
		t.Fatalf("held set: %d live, scanned %t; want 4, true", n, ok)
	}
	// New contents without a Reset: the product trusts the holder.
	liveExactly(a, []int{1, 4}, rng)
	if got := MulPackedBiasAct(dst, a, &l, pb, nil, ActIdentity, nil); got != 4 {
		t.Fatalf("held set rescanned without Reset: %d", got)
	}
	l.Reset()
	if got := MulPackedBiasAct(dst, a, &l, pb, nil, ActIdentity, nil); got != 2 {
		t.Fatalf("after Reset the product found %d live columns, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a set held for 12 columns was accepted for 5")
		}
	}()
	MulTransB(New(9, 9), a, a) // fine: no set
	MulPackedBiasAct(New(12, 9), b, &l, NewPackedB(5, 9), nil, ActIdentity, nil)
}

// TestNonFiniteContractBackward pins the backward products' rows of the
// non-finite table (DESIGN.md, "Determinism and the non-finite
// contract").
func TestNonFiniteContractBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const batch, m, n = 16, 12, 24
	withKernels(t, func(kernel string) {
		// A dead column of g hides a non-finite x in dW (the column's whole
		// panel goes: 16 of 24 live), as a dead column of x always hid a
		// non-finite g.
		x, g := New(batch, m), New(batch, n)
		fuzzFill(x.Data, rng)
		fuzzFill(g.Data, rng)
		live := pickColumns(n, 16, rng)
		liveExactly(g, live, rng)
		x.Set(3, 5, math.Inf(1))
		dw := New(m, n)
		dw.Fill(math.NaN())
		MulTransA(dw, x, g)
		isLive := make(map[int]bool)
		for _, c := range live {
			isLive[c] = true
		}
		for c := 0; c < n; c++ {
			v := dw.At(5, c)
			if !isLive[c] && math.Float64bits(v) != 0 {
				t.Fatalf("%s: dW[5][%d] = %v under a dead g column, want +0", kernel, c, v)
			}
			if isLive[c] && !math.IsInf(v, 0) && !math.IsNaN(v) {
				t.Fatalf("%s: dW[5][%d] = %v lost x's Inf in a live g column", kernel, c, v)
			}
		}

		// A gated output column hides a non-finite row of W; a listed one,
		// like every column of the ungated product, hides nothing — not
		// even under a dead column of g.
		g2, w, in := New(batch, m), New(n, m), New(batch, n)
		fuzzFill(g2.Data, rng)
		fuzzFill(w.Data, rng)
		fuzzFill(in.Data, rng)
		liveExactly(g2, []int{0, 2, 3, 7, 9}, rng) // column 1 is dead
		liveExactly(in, live, rng)
		deadOut, liveOut := -1, live[0]
		for c := 0; c < n && deadOut < 0; c++ {
			if !isLive[c] {
				deadOut = c
			}
		}
		w.Set(deadOut, 1, math.NaN())
		w.Set(liveOut, 1, math.Inf(-1))
		gin := New(batch, n)
		MulTransBPacked(gin, g2, nil, PackB(w), scanned(in), false, nil)
		for r := 0; r < batch; r++ {
			if v := gin.At(r, deadOut); math.Float64bits(v) != 0 {
				t.Fatalf("%s: gated column %d row %d = %v, want +0", kernel, deadOut, r, v)
			}
			if v := gin.At(r, liveOut); !math.IsNaN(v) {
				t.Fatalf("%s: listed column %d row %d = %v hides W's Inf under a dead g column", kernel, liveOut, r, v)
			}
		}
		MulTransB(gin, g2, w)
		for r := 0; r < batch; r++ {
			if !math.IsNaN(gin.At(r, deadOut)) || !math.IsNaN(gin.At(r, liveOut)) {
				t.Fatalf("%s: ungated MulTransB row %d hides a non-finite W element", kernel, r)
			}
		}
	})
}

// requireSameLive fails unless got holds the set want does: scanned, the
// same width, and the same live and dead columns.
func requireSameLive(t *testing.T, tag string, got, want *Live) {
	t.Helper()
	n, ok := got.Count()
	wn, _ := want.Count()
	if !ok || n != wn || got.k != want.k || !slices.Equal(got.list(), want.list()) || !slices.Equal(got.deadList(), want.deadList()) {
		t.Fatalf("%s: live set %v (%d of %d, scanned %t), Scan finds %v (%d of %d)", tag, got.list(), n, got.k, ok, want.list(), wn, want.k)
	}
}

// TestEpilogueLiveMatchesScan: the live set a forward product makes in its
// epilogue is the one a scan of what it stored finds, on every tier: with
// ReLU and without, with a bias and without, with NaN, −0 and +Inf among
// the stored values, at batch sizes that run the row path (fewer than four
// rows), four-row tiles and eight-row ones with ragged tails, and widths
// that leave a last panel of fewer than eight columns.
func TestEpilogueLiveMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 3, 4, 7, 8, 13, 16, 21} {
		for _, n := range []int{1, 5, 8, 19, 24} {
			const k = 11
			a, b := New(m, k), New(k, n)
			fuzzFill(a.Data, rng)
			fuzzFill(b.Data, rng)
			killColumns(a, 0.3, rng)
			killColumns(b, 0.3, rng) // columns of the product that only the bias moves
			plantNonFinite(b.Data, rng)
			pb := PackB(b)
			bias := make([]float64, n)
			fuzzFill(bias, rng)
			bias[rng.Intn(n)] = math.Copysign(0, -1)
			for _, bs := range [][]float64{nil, bias} {
				for _, act := range []Activation{ActIdentity, ActReLU} {
					withKernels(t, func(kernel string) {
						tag := fmt.Sprintf("%s/%dx%d·%dx%d/bias=%t/act=%d", kernel, m, k, k, n, bs != nil, act)
						dst := New(m, n)
						var out Live
						out.Scan(New(2, n+3)) // a stale set of another width
						MulPackedBiasAct(dst, a, nil, pb, bs, act, &out)
						requireSameLive(t, tag, &out, scanned(dst))
					})
				}
			}
		}
	}
}

// scratchShapes lists the distinct shapes the package scratch pool holds.
func scratchShapes() []string {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	var shapes []string
	for key, list := range scratch.free {
		if len(list) > 0 {
			shapes = append(shapes, fmt.Sprintf("%dx%d:%d", key[0], key[1], len(list)))
		}
	}
	sort.Strings(shapes)
	return shapes
}

// TestScratchShapesStable: the products draw their packed scratch at the
// operand's shape, not at its live count's, so a run whose live counts
// change every step holds the same buffers after step 500 as after step 5
// (the pool keys on exact shape; sized by live count it grew by a buffer
// per count ever seen).
func TestScratchShapesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const batch, in, out = 16, 40, 56
	x, g, w := New(batch, in), New(batch, out), New(in, out)
	dw, gin, y := New(in, out), New(batch, in), New(batch, out)
	fuzzFill(w.Data, rng)
	pw := PackB(w)
	var after5 []string
	for step := 1; step <= 500; step++ {
		fuzzFill(x.Data, rng)
		fuzzFill(g.Data, rng)
		liveExactly(x, pickColumns(in, rng.Intn(in+1), rng), rng)
		liveExactly(g, pickColumns(out, rng.Intn(out+1), rng), rng)
		var xl, gl Live
		MulPackedBiasAct(y, x, &xl, pw, nil, ActReLU, nil)
		MulTransALive(dw, x, &xl, g, &gl, nil)
		MulTransBPacked(gin, g, &gl, pw, &xl, false, nil)
		if step == 5 {
			after5 = scratchShapes()
		}
	}
	if got := scratchShapes(); fmt.Sprint(got) != fmt.Sprint(after5) {
		t.Fatalf("scratch pool shapes after step 500: %v\nafter step 5: %v", got, after5)
	}
}
