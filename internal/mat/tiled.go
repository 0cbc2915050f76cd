package mat

import "math"

// Cache-blocked, register-tiled GEMM path. The three products (Mul,
// MulTransA, MulTransB) share one microkernel shape: a tile of mr
// destination rows × nr destination columns accumulates over the full k
// depth in registers, reading the B operand from a packed panel buffer
// (nr consecutive destination columns stored contiguously per k step,
// zero-padded at the right edge).
//
// Bit-exactness contract: for every destination element the k terms are
// multiplied and added in ascending k order with individual roundings
// (never fused multiply-add), exactly like the naive kernels in
// streaming.go. Tiling only regroups *independent* destination elements,
// so the tiled and naive paths agree bitwise at every kernel tier
// (cpu.go) — the property the determinism tests and bit-identical
// resume depend on.
//
// What the paths do with zeros differs, and for finite operands does not
// matter: the naive Mul/MulTransA step over each ±0 element of a, the
// tiled ones skip the columns of a that are ±0 in every row (live.go)
// and multiply through the rest. A skipped term and a term of ±0 leave
// the same bits in an accumulator that started at +0. They part ways
// only on a non-finite b element under a zero a element (DESIGN.md,
// "Determinism and the non-finite contract").
// MulTransB, like Dot, hides nothing in either form.
const (
	// nr is the register tile width: one packed panel covers nr
	// destination columns (two 4-lane AVX2 vectors, one 8-lane AVX-512
	// vector).
	nr = 8
	// mr is the height in destination rows of the AVX2 register tile, zr
	// of the AVX-512 one.
	mr = 4
	zr = 8
	// minPackRows is the destination row count below which packing the
	// B operand cannot be amortised and the streaming kernels win
	// (batch-1 action selection stays on the naive path).
	minPackRows = 8
)

// Activation selects the fused epilogue applied while a GEMM result is
// written back (see MulBiasAct).
type Activation uint8

const (
	// ActIdentity stores the raw product (plus bias when given).
	ActIdentity Activation = iota
	// ActReLU stores max(0, v) — NaN and −0 map to +0, matching the
	// standalone nn ReLU layer element-for-element.
	ActReLU
)

// epilogue is how a finished accumulator row reaches the destination.
type epilogue struct {
	// accumulate adds the sum to what dst holds (dst + sum, one rounding)
	// instead of storing it.
	accumulate bool
	// bias, when non-nil, is broadcast-added before the activation.
	bias []float64
	act  Activation
	// cols, when non-nil, is the destination column of each packed column,
	// ascending: the product ran over a subset of its columns (packB,
	// packBT) and scatters them home. nil stores in place. The mapped
	// products are the backward pass's, which carry no bias or activation.
	cols []int32
}

// packB packs b into nr-wide column panels: panel p holds destination
// columns [p·nr, p·nr+nr), laid out k-major so the microkernel streams
// it linearly. Columns past the last are zero-padded (the pad lanes
// accumulate only ±0·av terms that never reach the destination). cols,
// when non-nil, lists the columns of b to pack, ascending, in place of
// all of them: packed column j is b's column cols[j]. The scratch is
// drawn at b's full shape either way — the pool keys on exact shape, and
// a live count that changes every step would leave a buffer per count.
func packB(b *Matrix, cols []int32) *Matrix {
	pm := GetScratch(1, (b.Cols+nr-1)/nr*nr*b.Rows)
	packBInto(pm.Data, b, cols)
	return pm
}

// packBInto packs b into bp (length ≥ panels·nr·k), the shared core of
// the scratch packB and the persistent PackedB.
func packBInto(bp []float64, b *Matrix, cols []int32) {
	k, n := b.Rows, span(cols, b.Cols)
	panels := (n + nr - 1) / nr
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := min(n-j0, nr)
		out := bp[p*nr*k : (p+1)*nr*k]
		if cols == nil && w == nr {
			// A full panel of adjacent columns: eight assignments a row, which
			// a copy of eight elements spends on its call alone.
			for t := 0; t < k; t++ {
				src := b.Data[t*b.Cols+j0 : t*b.Cols+j0+nr]
				dst := out[t*nr : t*nr+nr]
				dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6], dst[7] =
					src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]
			}
			continue
		}
		for t := 0; t < k; t++ {
			dst := out[t*nr : t*nr+nr]
			if cols == nil {
				copy(dst, b.Data[t*b.Cols+j0:t*b.Cols+j0+w])
			} else {
				brow := b.Data[t*b.Cols : (t+1)*b.Cols]
				for jj, c := range cols[j0 : j0+w] {
					dst[jj] = brow[c]
				}
			}
			for jj := w; jj < nr; jj++ {
				dst[jj] = 0
			}
		}
	}
}

// packBT packs bᵀ into nr-wide panels for MulTransB: panel p holds
// destination columns [p·nr, p·nr+nr), i.e. rows of b, transposed so the
// microkernel streams k-major. rows, when non-nil, lists the rows of b to
// pack, ascending (packed column j is b's row rows[j]); depth, when
// non-nil, the k steps the kernel will visit — the others are left
// unwritten, nobody reads them. Scratch at b's full shape, like packB.
func packBT(b *Matrix, rows, depth []int32) *Matrix {
	k := b.Cols // the depth
	pm := GetScratch(1, (b.Rows+nr-1)/nr*nr*k)
	n := span(rows, b.Rows) // destination columns packed
	panels := (n + nr - 1) / nr
	var src [nr][]float64
	for p := 0; p < panels; p++ {
		for jj := range src {
			// A last panel of fewer than nr columns repeats its final one:
			// the pad lanes are computed and never stored, like the rows a
			// last tile repeats.
			r := pick(rows, min(p*nr+jj, n-1))
			src[jj] = b.Data[r*k : (r+1)*k]
		}
		// One panel row a step: eight reads down eight rows of b, one
		// contiguous 64-byte write.
		out := pm.Data[p*nr*k : (p+1)*nr*k]
		s0, s1, s2, s3, s4, s5, s6, s7 := src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]
		if depth == nil {
			for t := range s0 {
				o := out[t*nr : t*nr+nr]
				o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0[t], s1[t], s2[t], s3[t], s4[t], s5[t], s6[t], s7[t]
			}
			continue
		}
		for _, t := range depth {
			o := out[int(t)*nr : int(t)*nr+nr]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0[t], s1[t], s2[t], s3[t], s4[t], s5[t], s6[t], s7[t]
		}
	}
	return pm
}

// gemmPackedRange computes destination rows [r0, r1) of dst = a·(packed
// panels) through the epilogue. live lists, ascending, the k-columns of a
// that hold anything other than ±0 in some row of the product (see Live);
// nil means every column, and the kernel then walks the whole depth.
// Every term of a live column is multiplied and added — there is no
// per-element zero test — so what a product skips is decided once per
// product, not once per element.
func gemmPackedRange(dst, a *Matrix, bp []float64, r0, r1 int, live []int32, ep *epilogue) {
	k := a.Cols
	n := span(ep.cols, dst.Cols) // the columns the panels hold
	if !haveAVX2 {
		for i := r0; i < r1; i++ {
			gemmPackedRow(dst.Row(i), a.Row(i), bp, k, n, live, ep)
		}
		return
	}
	panels := (n + nr - 1) / nr
	var acc [zr * nr]float64
	t8 := ep.tile8For(k, live, n, &acc)
	for i := r0; i < r1; {
		// A last tile of fewer than h rows repeats its final row: the
		// kernel computes h rows either way and the repeats are not
		// stored, so every row of the range runs a tile kernel.
		h := tileHeight(r1 - i)
		rows := min(r1-i, h)
		for q := 0; q < h; q++ {
			t8.a[q] = &a.Data[(i+min(q, rows-1))*k]
		}
		if h == zr && ep.cols == nil {
			for q := range t8.d {
				t8.d[q] = &dst.Data[(i+q)*dst.Cols]
			}
			t8.run(bp, 0, panels)
			i += zr
			continue
		}
		for p := 0; p < panels; p++ {
			if h == zr {
				t8.run(bp, p, 1)
			} else {
				kernTile4(k, live, &t8.a, &bp[p*nr*k], &acc)
			}
			j0 := p * nr
			w := min(n-j0, nr)
			for q := 0; q < rows; q++ {
				storeTile(dst.Row(i+q), acc[q*nr:], j0, w, ep)
			}
		}
		i += rows
	}
}

// tile8 is kern8x8's argument block (the assembly reads the fields by
// offset): one 8-row tile of a product against one or every panel, the
// epilogue run on the registers.
type tile8 struct {
	k      int          // 0: steps per panel — the depth, or len(idx)
	idx    *int32       // 8: the k-steps to visit, ascending; nil visits 0..k-1
	a      [zr]*float64 // 16: the eight a rows
	d      [zr]*float64 // 80: the eight destination rows
	panel  *float64     // 144: the operand's first panel
	stride int          // 152: bytes from one panel to the next
	panels int          // 160: panels left to run
	bias   *float64     // 168: nil for none; the destination's first column's
	relu   int          // 176: non-zero applies ReLU
	acc    int          // 184: non-zero adds the destination (dst + sum)
	col    int          // 192: byte offset of the next panel's first column in a d row
	last   int          // 200: lane mask of the last panel, (1 << its columns) − 1
	poff   int          // 208: byte offset of the next panel from the first
}

// tile8For prepares what the 8-row tiles of one product share (they exist
// on the AVX-512 tier only: tileHeight). depth is the panels' row count,
// live the k-steps to visit (nil for all), n the packed width. A product
// into contiguous destination columns writes back from the registers,
// every panel of a tile in one call: the caller points t.d at the tile's
// destination rows. A column-mapped one runs a panel a call into acc,
// which storeTile scatters, as every product does on the other tiers.
func (ep *epilogue) tile8For(depth int, live []int32, n int, acc *[zr * nr]float64) (t tile8) {
	t = tile8{k: depth, stride: nr * depth * 8, last: 1<<(n-(n-1)/nr*nr) - 1}
	if live != nil {
		if t.k = len(live); t.k > 0 {
			t.idx = &live[0]
		}
	}
	switch {
	case ep.cols != nil:
		t.last = 1<<nr - 1 // acc has every lane
		for q := range t.d {
			t.d[q] = &acc[q*nr]
		}
	case ep.accumulate: // storeTile's order: an accumulating store has no bias or activation
		t.acc = 1
	default:
		if ep.bias != nil {
			t.bias = &ep.bias[0]
		}
		if ep.act == ActReLU {
			t.relu = 1
		}
	}
	return t
}

// run computes the tile — t.a and t.d set — against count panels of bp
// from the first-th on.
func (t *tile8) run(bp []float64, first, count int) {
	t.panel, t.poff, t.panels, t.col = &bp[0], first*t.stride, count, 0
	kern8x8(t)
}

// tileHeight is the height of the next register tile when rows are left:
// zr wherever the CPU has AVX-512 and a full tile remains, mr otherwise.
func tileHeight(rows int) int {
	if haveAVX512 && rows >= zr {
		return zr
	}
	return mr
}

// kernTile4 runs the mr×nr microkernel the operand calls for — the indexed
// one when a has dead columns, the dense one otherwise — into the first
// mr rows of acc. Both add every term in ascending k.
func kernTile4(k int, live []int32, ap *[zr]*float64, panel *float64, acc *[zr * nr]float64) {
	acc4 := (*[mr * nr]float64)(acc[:])
	switch {
	case live == nil:
		kern4x8n(k, ap[0], ap[1], ap[2], ap[3], panel, acc4)
	case len(live) == 0:
		*acc4 = [mr * nr]float64{}
	default:
		kern4x8ni(len(live), &live[0], ap[0], ap[1], ap[2], ap[3], panel, acc4)
	}
}

// gemmPackedRowFused computes one destination row against every packed
// panel with a single fused kernel call (all panels in one asm sweep)
// and a single epilogue pass over the row: the path of products with
// fewer than mr rows, batch-1 action selection above all, which pays no
// column scan and instead steps over the ±0 elements of its one a-row.
// rowAcc is caller scratch of at least ceil(n/nr)*nr elements. For
// finite operands it equals the tiled kernels bit for bit (DESIGN.md,
// "Determinism and the non-finite contract"); a non-finite b element
// under a zero a element stays hidden here.
func gemmPackedRowFused(drow, arow, bp, rowAcc []float64, k, n int, ep *epilogue) {
	panels := (n + nr - 1) / nr
	if haveAVX2 {
		kernRowPanelsS(k, panels, &arow[0], &bp[0], &rowAcc[0])
	} else {
		var tmp [nr]float64
		for p := 0; p < panels; p++ {
			kernRowGo(arow[:k], bp[p*nr*k:(p+1)*nr*k], &tmp, nil, true)
			copy(rowAcc[p*nr:p*nr+nr], tmp[:])
		}
	}
	storeTile(drow, rowAcc, 0, n, ep)
}

// gemmPackedRow is the portable (no-assembly) form of one destination
// row: every packed panel through kernRowGo, walking the live list when
// there is one, then the shared epilogue.
func gemmPackedRow(drow, arow, bp []float64, k, n int, live []int32, ep *epilogue) {
	panels := (n + nr - 1) / nr
	var acc [nr]float64
	for p := 0; p < panels; p++ {
		kernRowGo(arow[:k], bp[p*nr*k:(p+1)*nr*k], &acc, live, false)
		j0 := p * nr
		storeTile(drow, acc[:], j0, min(n-j0, nr), ep)
	}
}

// kernRowGo is the portable microkernel: one destination row × one
// packed panel, eight independent accumulator chains, ascending k,
// multiply-then-add per term — bitwise identical to the AVX2 kernels.
// With a live list it visits those columns only; otherwise every column,
// and skip (the batch-1 row path) steps over ±0 elements of arow.
func kernRowGo(arow, panel []float64, acc *[nr]float64, live []int32, skip bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	switch {
	case live != nil:
		for _, t := range live {
			av := arow[t]
			q := panel[int(t)*nr : int(t)*nr+nr]
			c0 += av * q[0]
			c1 += av * q[1]
			c2 += av * q[2]
			c3 += av * q[3]
			c4 += av * q[4]
			c5 += av * q[5]
			c6 += av * q[6]
			c7 += av * q[7]
		}
	default:
		for t, av := range arow {
			if skip && av == 0 {
				continue
			}
			q := panel[t*nr : t*nr+nr]
			c0 += av * q[0]
			c1 += av * q[1]
			c2 += av * q[2]
			c3 += av * q[3]
			c4 += av * q[4]
			c5 += av * q[5]
			c6 += av * q[6]
			c7 += av * q[7]
		}
	}
	acc[0], acc[1], acc[2], acc[3] = c0, c1, c2, c3
	acc[4], acc[5], acc[6], acc[7] = c4, c5, c6, c7
}

// storeTile writes packed columns [j0, j0+w) of one microkernel row, held
// in acc[:w], back into the destination row drow through the epilogue:
// in place or scattered through the column map, stored or accumulated
// (+=), with the bias broadcast and/or activation.
func storeTile(drow, acc []float64, j0, w int, ep *epilogue) {
	acc = acc[:w]
	if ep.cols != nil {
		cols := ep.cols[j0 : j0+w]
		if ep.accumulate {
			for jj, c := range cols {
				drow[c] += acc[jj]
			}
		} else {
			for jj, c := range cols {
				drow[c] = acc[jj]
			}
		}
		return
	}
	drow = drow[j0 : j0+w]
	bias := ep.bias
	if bias != nil {
		bias = bias[j0 : j0+w]
	}
	switch {
	case ep.accumulate:
		for jj, v := range acc {
			drow[jj] += v
		}
	case bias == nil && ep.act == ActIdentity:
		copy(drow, acc)
	case bias == nil: // ActReLU
		for jj, v := range acc {
			drow[jj] = relu(v)
		}
	case ep.act == ActReLU:
		for jj, v := range acc {
			drow[jj] = relu(v + bias[jj])
		}
	default: // bias, identity
		for jj, v := range acc {
			drow[jj] = v + bias[jj]
		}
	}
}

// relu is max(0, v) with NaN and −0 mapped to +0 — `if !(v > 0) { v = 0 }`
// — as a test on the bit pattern the compiler turns into a conditional
// move: a pre-activation's sign is a coin flip no predictor learns. v is
// in (0, +Inf] exactly when its bits, less one, fall below +Inf's.
func relu(v float64) float64 {
	b := math.Float64bits(v)
	if b-1 >= 0x7FF0000000000000 {
		b = 0
	}
	return math.Float64frombits(b)
}

// biasActRange applies the bias/activation epilogue to rows [r0, r1) of
// dst in one sweep — the fused tail of the streaming (non-packed) path.
func biasActRange(dst *Matrix, r0, r1 int, bias []float64, act Activation) {
	if bias == nil && act == ActIdentity {
		return
	}
	for i := r0; i < r1; i++ {
		row := dst.Row(i)
		if bias != nil {
			for j := range row {
				row[j] += bias[j]
			}
		}
		if act == ActReLU {
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0
				}
			}
		}
	}
}

// gemmTransAPacked computes dst = aᵀ·(packed panels) over the
// destination rows live lists, or all of them when live is nil:
// destination row i is column i of a, gathered into one contiguous
// scratch tile so the shared microkernel can stream it. live is the live
// list of a's columns — a dead column is a dead destination row, which
// the caller settles without a kernel (transADeadRows), as it does the
// destination columns ep's column map leaves out (settleDeadColumns).
// The depth is a's row count, the minibatch, so the kernel walks all of
// it.
func gemmTransAPacked(dst, a *Matrix, bp []float64, live []int32, ep *epilogue) {
	k := a.Rows
	n := span(ep.cols, dst.Cols) // the columns the panels hold
	cb := GetScratch(zr, k)
	defer PutScratch(cb)
	c1 := span(live, a.Cols)
	if !haveAVX2 {
		col := cb.Row(0)
		for c := 0; c < c1; c++ {
			a.ColInto(col, pick(live, c))
			gemmPackedRow(dst.Row(pick(live, c)), col, bp, k, n, nil, ep)
		}
		return
	}
	panels := (n + nr - 1) / nr
	var acc [zr * nr]float64
	var src [zr]int
	t8 := ep.tile8For(k, nil, n, &acc)
	for c := 0; c < c1; {
		// A last tile of fewer than h rows repeats its final column, like
		// gemmPackedRange's.
		h := tileHeight(c1 - c)
		cnt := min(c1-c, h)
		for q := 0; q < cnt; q++ {
			src[q] = pick(live, c+q)
		}
		gatherColumns(cb, a, src[:cnt])
		for q := 0; q < h; q++ {
			t8.a[q] = &cb.Data[min(q, cnt-1)*k]
		}
		if h == zr && ep.cols == nil {
			for q := range t8.d {
				t8.d[q] = &dst.Data[src[q]*dst.Cols]
			}
			t8.run(bp, 0, panels)
			c += zr
			continue
		}
		for p := 0; p < panels; p++ {
			if h == zr {
				t8.run(bp, p, 1)
			} else {
				kernTile4(k, nil, &t8.a, &bp[p*nr*k], &acc)
			}
			j0 := p * nr
			w := min(n-j0, nr)
			for q := 0; q < cnt; q++ {
				storeTile(dst.Row(src[q]), acc[q*nr:], j0, w, ep)
			}
		}
		c += cnt
	}
}

// gatherColumns writes column cols[q] of a into row q of cb, for up to zr
// columns at once and a row of a at a time: the columns of one tile lie
// within a cache line or two of each other in every row, which a gather
// column by column would fetch once per column.
func gatherColumns(cb, a *Matrix, cols []int) {
	k, ac := a.Rows, a.Cols
	if len(cols) == zr {
		c0, c1, c2, c3, c4, c5, c6, c7 := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]
		d := cb.Data[:zr*k]
		for i := 0; i < k; i++ {
			arow := a.Data[i*ac : (i+1)*ac]
			d[i], d[k+i], d[2*k+i], d[3*k+i] = arow[c0], arow[c1], arow[c2], arow[c3]
			d[4*k+i], d[5*k+i], d[6*k+i], d[7*k+i] = arow[c4], arow[c5], arow[c6], arow[c7]
		}
		return
	}
	for i := 0; i < k; i++ {
		arow := a.Data[i*ac : (i+1)*ac]
		for q, c := range cols {
			cb.Data[q*k+i] = arow[c]
		}
	}
}

// transADeadRows settles the destination rows of dst (+)= aᵀ·b that live
// does not list. Their sums are +0: a plain product stores it, and an
// accumulating one adds it, which rewrites a −0 already in dst to +0 and
// leaves every other value alone — n additions where the product would
// have spent k·n multiply-adds to the same effect.
func transADeadRows(dst *Matrix, live []int32, accumulate bool) {
	next := 0
	for i := 0; i < dst.Rows; i++ {
		if next < len(live) && int(live[next]) == i {
			next++
			continue
		}
		drow := dst.Row(i)
		if accumulate {
			for j := range drow {
				drow[j] += 0
			}
		} else {
			clear(drow)
		}
	}
}
