package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTiledStraddlesEightRowTile holds every product — the three the
// learner runs and the wrappers over them — to the naive kernels, bitwise
// and under every tier, on the shapes where one tile hands over to the
// next: under four rows (the fused row kernel), a four-row tile with and
// without repeated rows, and both sides of one and two full 8-row tiles;
// widths that leave a partial panel; depths of 0 and 1, and of 5 and 7,
// which give MulTransA a destination narrower than one tile (Fig. 1's
// first layer); and live lists that are empty, full, or one column.
func TestTiledStraddlesEightRowTile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17} {
		for _, n := range []int{1, 8, 13} {
			for _, k := range []int{0, 1, 5, 7, 21} {
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
					naiveMul(wantMul, a, b)
					wantTB := New(m, n)
					naiveMulTransB(wantTB, a, bt)
					wantTA := New(k, n) // aᵀ·c: a's columns are the destination rows
					naiveMulTransA(wantTA, a, c)
					pb, pbt := PackB(b), PackB(bt)

					withKernels(t, func(kernel string) {
						got := New(m, n)
						for _, p := range []struct {
							name string
							run  func()
						}{
							{"Mul", func() { Mul(got, a, b) }},
							{"MulPackedBiasAct", func() { MulPackedBiasAct(got, a, nil, pb, nil, ActIdentity, nil) }},
							{"MulGroupedBiasAct", func() { MulGroupedBiasAct(got, a, m, []Group{{Packed: pb}}, ActIdentity) }},
						} {
							fuzzFill(got.Data, rng)
							p.run()
							requireBitsEqual(t, p.name+"/"+kernel+"/"+tag, got, wantMul)
						}
						fuzzFill(got.Data, rng)
						MulTransB(got, a, bt)
						requireBitsEqual(t, "MulTransB/"+kernel+"/"+tag, got, wantTB)
						fuzzFill(got.Data, rng)
						MulTransBPacked(got, a, nil, pbt, nil, false, nil)
						requireBitsEqual(t, "MulTransBPacked/"+kernel+"/"+tag, got, wantTB)

						gotTA := New(k, n)
						fuzzFill(gotTA.Data, rng)
						MulTransA(gotTA, a, c)
						requireBitsEqual(t, "MulTransA/"+kernel+"/"+tag, gotTA, wantTA)
						var al, cl Live
						for pass := 1; pass <= 2; pass++ { // the second pass reuses the held scans
							fuzzFill(gotTA.Data, rng)
							MulTransALive(gotTA, a, &al, c, &cl, nil)
							requireBitsEqual(t, fmt.Sprintf("MulTransALive/%s/%s/pass %d", kernel, tag, pass), gotTA, wantTA)
						}
					})
				}
			}
		}
	}
}

// TestTiledKern8x16IsFourKern4x8n calls the kernels themselves: one
// AVX-512 tile (kern8x16 as the bare tile: one pass, no epilogue, into an
// accumulator array) over two panels must leave there exactly what four
// AVX2 tiles — two halves of the rows against each panel — leave in
// theirs, and a pass over one panel what two of them leave, without
// touching the array's second half; dense and indexed, at depths from
// none to past a cache line of indices, with Inf and NaN in both panels —
// and the dense walk must leave the same again when the eight rows are
// the columns of a's transpose, stepped a row of it at a time (how
// MulTransA reads its operand in place).
func TestTiledKern8x16IsFourKern4x8n(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine (or force-disabled)")
	}
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 2, 7, 16, 33, 64} {
		depth := max(k, 1) // the kernels take &row[0] even at k = 0
		a := New(zr, depth)
		bp := make([]float64, 2*depth*nr)
		fuzzFill(a.Data, rng)
		fuzzFill(bp, rng)
		plantNonFinite(bp[:depth*nr], rng)
		plantNonFinite(bp[depth*nr:], rng)
		var rows, cols [zr]*float64
		at := transpose(a)
		for q := range rows {
			rows[q], cols[q] = &a.Row(q)[0], &at.Data[q]
		}
		lists := [][]int32{nil} // nil: the dense walk
		if k > 0 {
			some := []int32{int32(k - 1)}
			for c := k - 2; c >= 0; c -= 1 + rng.Intn(3) {
				some = append([]int32{int32(c)}, some...)
			}
			lists = append(lists, some, []int32{int32(k / 2)})
		}
		walks := []wideTileCase{{a: rows, astep: 8}, {a: cols, astep: 8 * zr}} // along rows, down the transpose
		for _, live := range lists {
			for _, c := range walks {
				if live != nil && c.astep != 8 {
					continue // the indexed walk reads contiguous rows
				}
				c.k, c.depth, c.live, c.bp, c.n = k, depth, live, bp, zw
				// want: the four AVX2 tiles, laid out as the wide tile's rows.
				var want, four [zr * zw]float64
				for p := 0; p < 2; p++ {
					for h := 0; h < zr; h += mr {
						c.kern4(h, p, &four)
						for q := 0; q < mr; q++ {
							copy(want[(h+q)*zw+p*nr:], four[q*nr:(q+1)*nr])
						}
					}
				}
				for _, pass := range []int{2, 1} {
					var got [zr * zw]float64
					for i := range got {
						got[i] = math.NaN() // the kernel must overwrite the pass's part of it
					}
					bare := epilogue{} // the bare tile: the sums, stored
					tl := bare.tile16For(depth, live, zw)
					c.set(&tl)
					for q := range tl.d {
						tl.d[q] = &got[q*zw]
					}
					tl.run(bp, 0, pass)
					for i, w := range want {
						if i%zw >= pass*nr {
							w = math.NaN() // a one-panel pass leaves the second half alone
						}
						if math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("k=%d live=%v astep=%d pass=%d: acc[%d] = %x (%v), four 4×8 tiles leave %x (%v)",
								k, live, c.astep, pass, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
						}
					}
				}
			}
		}
	}
}

// wideTileCase is one 8-row tile of a product for the tests of kern8x16:
// the a rows, astep bytes from one element to the next, against the
// panels of bp (depth rows each, n columns in all), over the k steps of
// the dense walk or the steps live lists.
type wideTileCase struct {
	a        [zr]*float64
	astep    int
	k, depth int
	live     []int32
	bp       []float64
	n        int
}

// set points a wide tile at the case's rows and walk.
func (c *wideTileCase) set(t *tile16) {
	t.a, t.astep = c.a, c.astep
	if c.live == nil {
		t.k = c.k // a depth of 0 still has a one-row panel to point at
	}
}

// kern4 runs rows [h, h+mr) against panel p through the AVX2 tile into
// the first mr rows of acc, nr apart.
func (c *wideTileCase) kern4(h, p int, acc *[zr * zw]float64) {
	var half [zr]*float64
	copy(half[:], c.a[h:])
	kernTile4(c.k, c.astep, c.live, &half, &c.bp[p*nr*c.depth], (*[mr * nr]float64)(acc[:]))
}

// viaKern4 is the oracle: every panel through two AVX2 tiles, each row
// through storeTile into dst's rows.
func (c *wideTileCase) viaKern4(dst *Matrix, ep *epilogue) {
	var acc [zr * zw]float64
	for p := 0; p*nr < c.n; p++ {
		for h := 0; h < zr; h += mr {
			c.kern4(h, p, &acc)
			for q := 0; q < mr; q++ {
				storeTile(dst.Row(h+q), acc[q*nr:], p*nr, min(c.n-p*nr, nr), ep)
			}
		}
	}
}

// writeBack is kern8x16 over every panel in one call, storing from the
// registers into dst's rows — through ep's column map, when it has one.
func (c *wideTileCase) writeBack(dst *Matrix, ep *epilogue) {
	t := ep.tile16For(c.depth, c.live, c.n)
	c.set(&t)
	for q := range t.d {
		t.d[q] = &dst.Row(q)[0]
	}
	t.run(c.bp, 0, (c.n+nr-1)/nr)
}

// requireWideTile runs the tile's write-back over a copy of dst and holds
// it to the oracle, bit for bit but for NaN payloads (storeTile's
// additions may take their operands in either order).
func requireWideTile(t *testing.T, tag string, c *wideTileCase, dst *Matrix, ep *epilogue) {
	t.Helper()
	want, got := dst.Clone(), dst.Clone()
	c.viaKern4(want, ep)
	c.writeBack(got, ep)
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d: got %x (%v) want %x (%v)", tag, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// TestKern8x16WriteBackMatchesStoreTile calls the kernel's write-back
// itself: one call over every panel must leave in the destination exactly
// what AVX2 tiles and storeTile row by row leave there — every epilogue,
// dense and indexed, widths of odd and even panel counts that end in a
// full and in a partial panel, alone or closing a pair, with Inf and NaN
// reaching the ReLU — and must not touch a column past the destination's
// last; and so must a column-mapped write-back, stored or added, which
// scatters every row through the map and touches no column it leaves out.
func TestKern8x16WriteBackMatchesStoreTile(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine (or force-disabled)")
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 8, 9, 13, 16, 24, 40} {
		for _, k := range []int{0, 1, 9, 40} {
			depth := max(k, 1)
			a := New(zr, depth)
			b := New(depth, n)
			fuzzFill(a.Data, rng)
			fuzzFill(b.Data, rng)
			plantNonFinite(b.Data, rng)
			bp := make([]float64, (n+nr-1)/nr*nr*depth)
			packBInto(bp, b, nil)
			bias := make([]float64, n)
			fuzzFill(bias, rng)
			lists := [][]int32{nil}
			if k > 1 {
				lists = append(lists, []int32{0, int32(k / 2), int32(k - 1)}, []int32{})
			}
			for _, live := range lists {
				c := wideTileCase{astep: 8, k: k, depth: depth, live: live, bp: bp, n: n}
				for q := range c.a {
					c.a[q] = &a.Row(q)[0]
				}
				for _, ep := range []epilogue{
					{}, {act: ActReLU}, {bias: bias}, {bias: bias, act: ActReLU}, {accumulate: true},
				} {
					dst := New(zr, n+3) // three guard columns
					fuzzFill(dst.Data, rng)
					tag := fmt.Sprintf("n=%d k=%d live=%v acc=%t bias=%t act=%d", n, k, live, ep.accumulate, ep.bias != nil, ep.act)
					requireWideTile(t, tag, &c, dst, &ep)
					if ep.bias != nil || ep.act != ActIdentity {
						continue // a mapped product has no bias or activation
					}
					// n of the n+3 columns, ascending: a map that skips some.
					for skip := 0; skip < 3; skip++ {
						ep.cols = make([]int32, 0, n)
						for j := 0; j < n+3; j++ {
							if j%3 != skip || len(ep.cols)+(n+3-j) <= n {
								ep.cols = append(ep.cols, int32(j))
							}
						}
						ep.cols = ep.cols[:n]
						requireWideTile(t, fmt.Sprintf("%s cols=%v", tag, ep.cols), &c, dst, &ep)
					}
				}
			}
		}
	}
}
