package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTiledStraddlesEightRowTile holds every tiled entry point to the
// naive kernels, bitwise and under every tier, on the shapes where the
// 8-row AVX-512 tile hands over to the 4-row one: row counts on both
// sides of one and two full tiles, widths that leave a partial panel,
// depths of 0 and 1, and live lists that are empty, full, or one column.
func TestTiledStraddlesEightRowTile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	for _, m := range []int{7, 8, 9, 15, 16, 17} {
		for _, n := range []int{1, 8, 13} {
			for _, k := range []int{0, 1, 21} {
				for _, live := range []string{"full", "one", "empty"} {
					a, b, bt, c := New(m, k), New(k, n), New(n, k), New(m, n)
					for _, x := range []*Matrix{a, b, bt, c} {
						fuzzFill(x.Data, rng)
					}
					for i := range a.Data {
						col := i % max(k, 1)
						switch {
						case live == "empty", live == "one" && col != k/2:
							a.Data[i] = negZero
						case a.Data[i] == 0:
							a.Data[i] = 1 // keeps every listed column live
						}
					}
					tag := fmt.Sprintf("%dx%dx%d/%s", m, k, n, live)

					wantMul := New(m, n)
					mulRange(wantMul, a, b, 0, m)
					wantTB := New(m, n)
					mulTransBRange(wantTB, a, bt, 0, m, nil, false)
					wantTA := New(k, n) // aᵀ·c: a's columns are the destination rows
					mulTransARange(wantTA, a, c, 0, k)
					// Accumulating into −0 everywhere: a live row's sum must
					// land unchanged, and where the sum is +0 the −0 may stay
					// (keptNegZero).
					negZeros := New(k, n)
					negZeros.Fill(negZero)
					wantAcc := negZeros.Clone()
					wantAcc.AddScaled(1, wantTA)

					withKernels(t, func(kernel string) {
						got := New(m, n)
						fuzzFill(got.Data, rng)
						if k > 0 {
							MulPackedBiasAct(got, a, nil, PackB(b), nil, ActIdentity)
							requireBitsEqual(t, "MulPackedBiasAct/"+kernel+"/"+tag, got, wantMul)
						}
						fuzzFill(got.Data, rng)
						Mul(got, a, b)
						requireBitsEqual(t, "Mul/"+kernel+"/"+tag, got, wantMul)
						fuzzFill(got.Data, rng)
						MulTransB(got, a, bt)
						requireBitsEqual(t, "MulTransB/"+kernel+"/"+tag, got, wantTB)

						gotTA := New(k, n)
						fuzzFill(gotTA.Data, rng)
						MulTransA(gotTA, a, c)
						requireBitsEqual(t, "MulTransA/"+kernel+"/"+tag, gotTA, wantTA)
						gotAcc := negZeros.Clone()
						MulTransAAcc(gotAcc, a, nil, c, nil)
						requireBitsEqual(t, "MulTransAAcc/"+kernel+"/"+tag, gotAcc, keptNegZero(gotAcc, negZeros, wantAcc))
					})
				}
			}
		}
	}
}

// TestTiledKern8x8nIsTwoKern4x8n calls the kernels themselves: one
// AVX-512 tile (kern8x8 as the bare tile: one panel, no epilogue, into an
// accumulator array) must leave there exactly what two AVX2 tiles over
// the same eight rows leave in theirs, dense and indexed, at depths from
// none to past a cache line of indices, with Inf and NaN in the panel —
// and the dense walk must leave the same again when the eight rows are
// the columns of a's transpose, stepped a row of it at a time (how
// MulTransA reads its operand in place).
func TestTiledKern8x8nIsTwoKern4x8n(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine (or force-disabled)")
	}
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 2, 7, 16, 33, 64} {
		a := New(zr, max(k, 1)) // max: the kernels take &row[0] even at k = 0
		panel := make([]float64, max(k, 1)*nr)
		fuzzFill(a.Data, rng)
		fuzzFill(panel, rng)
		plantNonFinite(panel, rng)
		var r, col [zr]*float64
		at := transpose(a)
		for q := range r {
			r[q], col[q] = &a.Row(q)[0], &at.Data[q]
		}
		lists := [][]int32{nil} // nil: the dense kernels
		if k > 0 {
			some := []int32{int32(k - 1)}
			for c := k - 2; c >= 0; c -= 1 + rng.Intn(3) {
				some = append([]int32{int32(c)}, some...)
			}
			lists = append(lists, some, []int32{int32(k / 2)})
		}
		for _, live := range lists {
			var got [zr * nr]float64
			var lo, hi [mr * nr]float64
			for i := range got {
				got[i] = math.NaN() // the kernel must overwrite all of it
			}
			mapped := epilogue{cols: []int32{}} // a column-mapped product runs the bare tile
			t8 := mapped.tile8For(max(k, 1), live, nr, &got)
			if t8.a = r; live == nil {
				t8.k = k // a depth of 0 still has a one-row panel to point at
				kern4x8n(k, 8, r[0], r[1], r[2], r[3], &panel[0], &lo)
				kern4x8n(k, 8, r[4], r[5], r[6], r[7], &panel[0], &hi)
			} else {
				kern4x8ni(len(live), &live[0], r[0], r[1], r[2], r[3], &panel[0], &lo)
				kern4x8ni(len(live), &live[0], r[4], r[5], r[6], r[7], &panel[0], &hi)
			}
			t8.run(panel, 0, 1)
			want := append(append([]float64(nil), lo[:]...), hi[:]...)
			requireAcc := func(tag string, got []float64) {
				t.Helper()
				for i, w := range want {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("k=%d live=%v %s: acc[%d] = %x (%v), two 4×8 tiles leave %x (%v)",
							k, live, tag, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
					}
				}
			}
			requireAcc("kern8x8", got[:])
			if live != nil {
				continue
			}
			astep := 8 * zr // a row of the transpose
			t8.a, t8.astep = col, astep
			t8.run(panel, 0, 1)
			requireAcc("kern8x8 down the transpose", got[:])
			kern4x8n(k, astep, col[0], col[1], col[2], col[3], &panel[0], &lo)
			kern4x8n(k, astep, col[4], col[5], col[6], col[7], &panel[0], &hi)
			requireAcc("kern4x8n down the transpose", append(lo[:], hi[:]...))
		}
	}
}

// TestKern8x8WriteBackMatchesStoreTile calls the kernel's write-back
// itself: one call over every panel must leave in the destination exactly
// what the bare tile into the accumulator array and storeTile row by row
// leave there — every epilogue, dense and indexed, widths that end in a
// full and in a partial panel, with Inf and NaN reaching the ReLU — and
// must not touch a column past the destination's last.
func TestKern8x8WriteBackMatchesStoreTile(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine (or force-disabled)")
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 8, 13, 24} {
		for _, k := range []int{0, 1, 9, 40} {
			panels := (n + nr - 1) / nr
			a := New(zr, max(k, 1))
			b := New(max(k, 1), n)
			fuzzFill(a.Data, rng)
			fuzzFill(b.Data, rng)
			plantNonFinite(b.Data, rng)
			bp := make([]float64, panels*nr*max(k, 1))
			packBInto(bp, b, nil)
			bias := make([]float64, n)
			fuzzFill(bias, rng)
			lists := [][]int32{nil}
			if k > 1 {
				lists = append(lists, []int32{0, int32(k / 2), int32(k - 1)}, []int32{})
			}
			for _, live := range lists {
				for _, ep := range []epilogue{
					{}, {act: ActReLU}, {bias: bias}, {bias: bias, act: ActReLU}, {accumulate: true},
				} {
					want, got := New(zr, n+3), New(zr, n+3) // three guard columns
					fuzzFill(want.Data, rng)
					got.CopyFrom(want)
					var acc [zr * nr]float64
					mapped := epilogue{cols: []int32{}} // the bare tile
					bare, wb := mapped.tile8For(max(k, 1), live, n, &acc), ep.tile8For(max(k, 1), live, n, nil)
					if live == nil {
						bare.k, wb.k = k, k // a depth of 0 still has a one-row panel to point at
					}
					for q := range wb.a {
						bare.a[q], wb.a[q], wb.d[q] = &a.Row(q)[0], &a.Row(q)[0], &got.Row(q)[0]
					}
					for p := 0; p < panels; p++ {
						bare.run(bp, p, 1)
						for q := 0; q < zr; q++ {
							storeTile(want.Row(q), acc[q*nr:], p*nr, min(n-p*nr, nr), &ep)
						}
					}
					wb.run(bp, 0, panels)
					tag := fmt.Sprintf("n=%d k=%d live=%v acc=%t bias=%t act=%d", n, k, live, ep.accumulate, ep.bias != nil, ep.act)
					for i, w := range want.Data {
						g := got.Data[i]
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("%s: element %d: got %x (%v) want %x (%v)", tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
						}
					}
				}
			}
		}
	}
}
