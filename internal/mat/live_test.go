package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The live × live block of the backward pass (DESIGN.md, "The training
// step and its kernel tiers"), held bit for bit to the streaming kernels: MulTransA* packing b's live columns only,
// MulTransBLive computing the destination columns a gate lists and no
// others, both with the sets the caller holds.

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
	l.scan(m, 0, m.Rows)
	return l
}

// TestLiveBlockMatchesNaive: live counts on both sides of one and two
// panels, widths that leave a partial panel, accumulation into −0 (a dead
// row of dW keeps it, any other element whose sum is +0 may: the
// precondition) and stale values planted in the gated destination, under
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
				mulTransARange(wantTA, x, g, 0, m)
				negZeros := New(m, n)
				negZeros.Fill(negZero)
				wantAcc := negZeros.Clone()
				wantAcc.AddScaled(1, wantTA)

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
				mulTransBRange(full, g2, w, 0, batch, nil, false)
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
						got.CopyFrom(negZeros)
						MulTransAAcc(got, x, xl, g, gl)
						requireBitsEqual(t, "MulTransAAcc"+pass+"/"+kernel+"/"+tag, got, keptNegZero(got, negZeros, wantAcc))
						for j, v := range got.Row(deadRow) {
							if math.Float64bits(v) != math.Float64bits(negZero) {
								t.Fatalf("%s: MulTransAAcc%s added to dead row %d: [%d] = %v, want the −0 it held", tag, pass, deadRow, j, v)
							}
						}
						if c, ok := gl.Count(); !ok || c != liveN {
							t.Fatalf("%s: g's set holds %d live columns (scanned %t), want %d", tag, c, ok, liveN)
						}
					}

					gate := scanned(in)
					gotTB := New(batch, n)
					// W is finite: declaring it so changes no bit.
					for _, finite := range []bool{false, true} {
						ftag := fmt.Sprintf("%s/%s/finite=%t", kernel, tag, finite)
						for i := range gotTB.Data {
							gotTB.Data[i] = math.NaN() // stale: every element must be written
						}
						MulTransBLive(gotTB, g2, nil, w, finite, gate, false)
						requireBitsEqual(t, "MulTransBLive gated/"+ftag, gotTB, wantTB)
						gotTB.CopyFrom(dst0)
						MulTransBLive(gotTB, g2, scanned(g2), w, finite, gate, true)
						requireBitsEqual(t, "MulTransBLive gated acc/"+ftag, gotTB, wantTBAcc)
						// Ungated and accumulating: every column, added.
						gotTB.CopyFrom(dst0)
						wantFullAcc := dst0.Clone()
						wantFullAcc.AddScaled(1, full)
						MulTransBLive(gotTB, g2, nil, w, finite, nil, true)
						requireBitsEqual(t, "MulTransBLive acc/"+ftag, gotTB, wantFullAcc)
					}
				})

				// Below the pack gate the streaming kernel keeps the same
				// contract.
				few := minPackRows - 1
				gotS := New(few, n)
				gotS.Fill(math.NaN())
				wantS := New(few, n)
				for _, c := range cols {
					for r := 0; r < few; r++ {
						wantS.Set(r, c, full.At(r, c))
					}
				}
				MulTransBLive(gotS, g2.RowsView(0, few), nil, w, false, scanned(in), false)
				requireBitsEqual(t, "MulTransBLive streaming/"+tag, gotS, wantS)
			}
		}
	}
}

// TestLiveMemo pins what a held set is: unscanned until a product of four
// rows or more needs it, reused as it stands until Reset, refused for an
// operand of another width.
func TestLiveMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(9, 12), New(12, 5)
	fuzzFill(a.Data, rng)
	fuzzFill(b.Data, rng)
	liveExactly(a, []int{1, 4, 5, 11}, rng)
	dst := New(9, 5)
	var l Live
	if _, ok := l.Count(); ok {
		t.Fatal("zero Live claims a scan")
	}
	MulBiasAct(dst.RowsView(0, 3), a.RowsView(0, 3), &l, b, nil, ActIdentity)
	if _, ok := l.Count(); ok {
		t.Fatal("a three-row product scanned")
	}
	if got := MulBiasAct(dst, a, &l, b, nil, ActIdentity); got != 4 {
		t.Fatalf("product found %d live columns, want 4", got)
	}
	if n, ok := l.Count(); !ok || n != 4 {
		t.Fatalf("held set: %d live, scanned %t; want 4, true", n, ok)
	}
	// New contents without a Reset: the product trusts the holder.
	liveExactly(a, []int{1, 4}, rng)
	if got := MulBiasAct(dst, a, &l, b, nil, ActIdentity); got != 4 {
		t.Fatalf("held set rescanned without Reset: %d", got)
	}
	l.Reset()
	if got := MulBiasAct(dst, a, &l, b, nil, ActIdentity); got != 2 {
		t.Fatalf("after Reset the product found %d live columns, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a set held for 12 columns was accepted for 5")
		}
	}()
	MulTransB(New(9, 9), a, a) // fine: no set
	MulBiasAct(New(12, 9), b, &l, New(5, 9), nil, ActIdentity)
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
		MulTransBLive(gin, g2, nil, w, false, scanned(in), false)
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
	var after5 []string
	for step := 1; step <= 500; step++ {
		fuzzFill(x.Data, rng)
		fuzzFill(g.Data, rng)
		liveExactly(x, pickColumns(in, rng.Intn(in+1), rng), rng)
		liveExactly(g, pickColumns(out, rng.Intn(out+1), rng), rng)
		var xl, gl Live
		MulBiasAct(y, x, &xl, w, nil, ActReLU)
		MulTransAAcc(dw, x, &xl, g, &gl)
		MulTransBLive(gin, g, &gl, w, false, &xl, false)
		if step == 5 {
			after5 = scratchShapes()
		}
	}
	if got := scratchShapes(); fmt.Sprint(got) != fmt.Sprint(after5) {
		t.Fatalf("scratch pool shapes after step 500: %v\nafter step 5: %v", got, after5)
	}
}
