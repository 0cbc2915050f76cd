package mat

import "math"

// Cache-blocked, register-tiled GEMM path. The three products
// (MulPackedBiasAct, MulTransALive, MulTransBPacked) share one
// microkernel shape: a tile of destination rows × one or two panels of
// destination columns accumulates over the full k depth in registers,
// reading the B operand from a packed panel buffer (nr consecutive
// destination columns stored contiguously per k step, zero-padded at the
// right edge).
//
// Bit-exactness contract: for every destination element the k terms are
// multiplied and added in ascending k order with individual roundings
// (never fused multiply-add), exactly like the naive oracles the tests
// hold the products to. Tiling only regroups *independent* destination
// elements, so the products agree bitwise with the oracles at every
// kernel tier (cpu.go) — the property the determinism tests and
// bit-identical resume depend on.
//
// What they do with zeros differs, and for finite operands does not
// matter: the naive a·b and aᵀ·b step over each ±0 element of a, the
// tiles skip the columns of a that are ±0 in every row (live.go) and
// multiply through the rest. A skipped term and a term of ±0 leave the
// same bits in an accumulator that started at +0. They part ways only on
// a non-finite b element under a zero a element (DESIGN.md, "Determinism
// and the non-finite contract"). MulTransBPacked, like Dot, hides
// nothing.
const (
	// nr is the panel width: one packed panel covers nr destination
	// columns (two 4-lane AVX2 vectors, one 8-lane AVX-512 vector), and is
	// the width of the AVX2 register tile.
	nr = 8
	// mr is the height in destination rows of the AVX2 register tile, zr
	// and zw the height and width of the AVX-512 one: two panels.
	mr = 4
	zr = 8
	zw = 2 * nr
)

// Activation selects the fused epilogue applied while a GEMM result is
// written back (see MulPackedBiasAct).
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
	// packBTPanels) and scatters them home. nil stores in place. The mapped
	// products are the backward pass's, which carry no bias or activation.
	cols []int32
	// or, when non-nil, is the destination's column-wise OR (Live.OrFor):
	// the bits of every value stored go into their column's, so the
	// product makes its output's live set as it writes the output.
	or []uint64
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

// packBTPanels packs the transpose of the operand pb holds into nr-wide
// panels for MulTransBPacked, in bp (at least the operand's full shape,
// like packB's scratch): panel p holds destination columns
// [p·nr, p·nr+nr), i.e. rows of the operand, transposed so the
// microkernel streams k-major. rows, when non-nil, lists the rows to
// pack, ascending (packed column j is the operand's row rows[j]); depth,
// when non-nil, the k steps the kernel will visit — the others need not
// be written, nobody reads them. Eight rows of the operand in one of its
// panels are eight contiguous runs, so the transposition goes an 8 × 8
// block at a time: eight run reads, eight panel-row writes. On the
// AVX-512 tier transposePanel moves every whole block through registers
// — a depth list's blocks whole, the steps it leaves out with them — and
// the loops here, the portable twin, take what is left: a last block of
// fewer than nr steps.
func packBTPanels(bp []float64, pb *PackedB, rows, depth []int32) {
	if depth != nil && len(depth) == 0 {
		return // the kernel visits no step
	}
	k := pb.N             // the depth
	n := span(rows, pb.K) // destination columns packed
	panels := (n + nr - 1) / nr
	stride := pb.K * nr // from one of pb's panels to the next
	var src [nr]int     // where each packed column's row starts in pb's first panel
	for p := 0; p < panels; p++ {
		for jj := range src {
			// A last panel of fewer than nr columns repeats its final one:
			// the pad lanes are computed and never stored, like the rows a
			// last tile repeats.
			src[jj] = pick(rows, min(p*nr+jj, n-1)) * nr
		}
		out := bp[p*nr*k : (p+1)*nr*k]
		q0 := 0 // the first block the loops below transpose
		if haveAVX512 {
			q0 = k / nr
			var idx *int32
			if depth != nil {
				idx = &depth[0]
			}
			transposePanel(&src, &pb.Data[0], 8*stride, q0, idx, len(depth), &out[0])
		}
		if depth == nil {
			for q := q0; q*nr < k; q++ {
				blk := pb.Data[q*stride:]
				s0, s1, s2, s3 := blk[src[0]:src[0]+nr], blk[src[1]:src[1]+nr], blk[src[2]:src[2]+nr], blk[src[3]:src[3]+nr]
				s4, s5, s6, s7 := blk[src[4]:src[4]+nr], blk[src[5]:src[5]+nr], blk[src[6]:src[6]+nr], blk[src[7]:src[7]+nr]
				for tt := range min(k-q*nr, nr) {
					o := out[(q*nr+tt)*nr : (q*nr+tt)*nr+nr]
					o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0[tt], s1[tt], s2[tt], s3[tt], s4[tt], s5[tt], s6[tt], s7[tt]
				}
			}
			continue
		}
		from := len(depth) // the steps past the kernel's blocks: the list's tail
		for from > 0 && int(depth[from-1]) >= q0*nr {
			from--
		}
		for _, t := range depth[from:] {
			blk := pb.Data[int(t)/nr*stride+int(t)%nr:]
			o := out[int(t)*nr : int(t)*nr+nr]
			o[0], o[1], o[2], o[3] = blk[src[0]], blk[src[1]], blk[src[2]], blk[src[3]]
			o[4], o[5], o[6], o[7] = blk[src[4]], blk[src[5]], blk[src[6]], blk[src[7]]
		}
	}
}

// packTransposed packs the transpose of b into nr-wide panels in pooled
// scratch, as packBTPanels packs an operand held in panels: panel p holds
// destination columns [p·nr, p·nr+nr), rows of b, k-major. A last panel
// of fewer than nr rows repeats b's final row in its pad lanes, which are
// computed and never stored.
func packTransposed(b *Matrix) *Matrix {
	k, n := b.Cols, b.Rows
	pm := GetScratch(1, (n+nr-1)/nr*nr*k)
	for p := 0; p*nr < n; p++ {
		var r [nr][]float64
		for jj := range r {
			r[jj] = b.Row(min(p*nr+jj, n-1))[:k]
		}
		out := pm.Data[p*nr*k : (p+1)*nr*k]
		for t := 0; t < k; t++ {
			o := out[t*nr : t*nr+nr]
			o[0], o[1], o[2], o[3] = r[0][t], r[1][t], r[2][t], r[3][t]
			o[4], o[5], o[6], o[7] = r[4][t], r[5][t], r[6][t], r[7][t]
		}
	}
	return pm
}

// gemmPacked computes dst = a·(packed panels) through the epilogue.
// live lists, ascending, the k-columns of a that hold anything other than
// ±0 in some row of the product (see Live); nil means every column, and
// the kernel then walks the whole depth.
// Every term of a live column is multiplied and added — there is no
// per-element zero test — so what a product skips is decided once per
// product, not once per element.
func gemmPacked(dst, a *Matrix, bp []float64, live []int32, ep *epilogue) {
	k := a.Cols
	n := span(ep.cols, dst.Cols) // the columns the panels hold
	if !haveAVX2 {
		for i := 0; i < a.Rows; i++ {
			gemmPackedRow(dst.Row(i), a.Row(i), 1, bp, k, n, live, ep)
		}
		return
	}
	runTiles(dst, a.Data, k, 8, nil, a.Rows, bp, k, n, live, ep)
}

// runTiles computes destination rows pick(rows, c), c in [0, count), of a
// product against every packed panel of bp (depth k, n columns; none when
// n is 0) on the SIMD tiers, through ep: row r's a elements start at
// a[r·lead] and lie astep bytes apart, live lists the k-steps to visit
// (nil for all). A last tile of fewer than h rows repeats its final row:
// the kernel computes h rows either way and the repeats are not stored,
// so every row runs a tile kernel. A tile of eight rows writes back from
// the registers, every panel in one call, scattering through the column
// map where there is one; a four-row tile runs one panel a call into acc,
// which storeTile writes back. acc and the tile share this frame: neither
// escapes.
func runTiles(dst *Matrix, a []float64, lead, astep int, rows []int32, count int, bp []float64, k, n int, live []int32, ep *epilogue) {
	if n == 0 {
		return
	}
	panels := (n + nr - 1) / nr
	var acc [mr * nr]float64
	var at [zr]int // the tile's destination rows
	t := ep.tile16For(k, live, n)
	t.astep = astep
	for c := 0; c < count; {
		h := tileHeight(count - c)
		cnt := min(count-c, h)
		for q := 0; q < h; q++ {
			at[q] = pick(rows, c+min(q, cnt-1))
			t.a[q] = &a[at[q]*lead]
		}
		c += cnt
		if h == zr { // a whole tile: no row repeats, so none is added to twice
			for q := range t.d {
				t.d[q] = &dst.Data[at[q]*dst.Cols]
			}
			t.run(bp, 0, panels)
			continue
		}
		for p := 0; p < panels; p++ {
			kernTile4(k, astep, live, &t.a, &bp[p*nr*k], &acc)
			j0 := p * nr
			for q := 0; q < cnt; q++ {
				storeTile(dst.Row(at[q]), acc[q*nr:], j0, min(n-j0, nr), ep)
			}
		}
	}
}

// tile16 is kern8x16's argument block (the assembly reads the fields by
// offset): one 8-row tile of a product against one or more panels, two a
// pass, the epilogue run on the registers.
type tile16 struct {
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
	col    int          // 192: byte offset of the next pass's first column in a d row
	last   int          // 200: lane mask of the last panel, (1 << its columns) − 1
	poff   int          // 208: byte offset of the next pass's first panel from the first
	astep  int          // 216: bytes from one a element to the next on the dense walk
	cols   *int32       // 224: nil stores in place; else packed column j goes to d row column cols[j]
	or     *uint64      // 232: nil for none; else the destination's column-wise OR, the stored rows ORed in
}

// tile16For prepares what the 8-row tiles of one product share (they exist
// on the AVX-512 tier only: tileHeight). depth is the panels' row count,
// live the k-steps to visit (nil for all), n the packed width; the a rows
// are contiguous (astep 8) until the caller says otherwise. The tile
// writes back from the registers, every panel in one call: the caller
// points t.d at the tile's destination rows. A column-mapped product
// scatters each row through ep's column map (its epilogue has no bias or
// activation).
func (ep *epilogue) tile16For(depth int, live []int32, n int) (t tile16) {
	t = tile16{k: depth, stride: nr * depth * 8, last: 1<<(n-(n-1)/nr*nr) - 1, astep: 8}
	if live != nil {
		if t.k = len(live); t.k > 0 {
			t.idx = &live[0]
		}
	}
	if ep.cols != nil {
		t.cols = &ep.cols[0]
	}
	if ep.or != nil {
		t.or = &ep.or[0]
	}
	if ep.accumulate { // storeTile's order: an accumulating store has no bias or activation
		t.acc = 1
		return t
	}
	if ep.bias != nil {
		t.bias = &ep.bias[0]
	}
	if ep.act == ActReLU {
		t.relu = 1
	}
	return t
}

// run computes the tile — t.a and t.d set — against count panels of bp
// from the first-th on.
func (t *tile16) run(bp []float64, first, count int) {
	t.panel, t.poff, t.panels, t.col = &bp[0], first*t.stride, count, 0
	kern8x16(t)
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
// one when a has dead columns, the dense one, stepping astep bytes from
// one a element to the next, otherwise — into the first mr rows of acc.
// Both add every term in ascending k.
func kernTile4(k, astep int, live []int32, ap *[zr]*float64, panel *float64, acc4 *[mr * nr]float64) {
	switch {
	case live == nil:
		kern4x8n(k, astep, ap[0], ap[1], ap[2], ap[3], panel, acc4)
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
			kernRowGo(arow, 1, bp[p*nr*k:(p+1)*nr*k], &tmp, nil, true)
			copy(rowAcc[p*nr:p*nr+nr], tmp[:])
		}
	}
	storeTile(drow, rowAcc, 0, n, ep)
}

// gemmPackedRow is the portable (no-assembly) form of one destination
// row: every packed panel through kernRowGo, walking the live list when
// there is one, then the shared epilogue. The row's k elements lie step
// apart in a (see kernRowGo).
func gemmPackedRow(drow, a []float64, step int, bp []float64, k, n int, live []int32, ep *epilogue) {
	panels := (n + nr - 1) / nr
	var acc [nr]float64
	for p := 0; p < panels; p++ {
		kernRowGo(a, step, bp[p*nr*k:(p+1)*nr*k], &acc, live, false)
		j0 := p * nr
		storeTile(drow, acc[:], j0, min(n-j0, nr), ep)
	}
}

// kernRowGo is the portable microkernel: one destination row × one
// packed panel, eight independent accumulator chains, ascending k,
// multiply-then-add per term — bitwise identical to the AVX2 kernels.
// The row's element t is a[t·step]: a row of the operand (step 1) or, for
// MulTransA, a column of it read in place (step its width). With a live
// list it visits those columns only; otherwise every one of the panel's
// k, and skip (the batch-1 row path) steps over ±0 elements of the row.
func kernRowGo(a []float64, step int, panel []float64, acc *[nr]float64, live []int32, skip bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	switch {
	case live != nil:
		for _, t := range live {
			av := a[int(t)*step]
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
		for t := 0; t < len(panel)/nr; t++ {
			av := a[t*step]
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
// (+=), with the bias broadcast and/or activation, and ORed into the
// destination's column-wise OR where there is one.
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
	if ep.or != nil {
		or := ep.or[j0 : j0+w]
		for jj, v := range drow {
			or[jj] |= math.Float64bits(v)
		}
	}
}

// storeZeros stores through ep the sums of a product of depth 0, +0, in
// n packed columns a row: the kernels, which read a's first element,
// cannot run it.
func storeZeros(dst *Matrix, n int, ep *epilogue) {
	var zero [nr]float64
	for i := 0; i < dst.Rows; i++ {
		for j0 := 0; j0 < n; j0 += nr {
			storeTile(dst.Row(i), zero[:], j0, min(n-j0, nr), ep)
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

// gemmTransAPacked computes dst = aᵀ·(packed panels) over the
// destination rows live lists, or all of them when live is nil:
// destination row i is column i of a, which the kernels read where it
// lies, one row of a apart per k step. The columns of one tile share a
// cache line or two of every row of a, so the tile's eight walks down
// them fetch each line once. live is the live list of a's columns — a
// dead column is a dead destination row, which a storing caller clears
// without a kernel (transADeadRows), as it does the destination columns
// ep's column map leaves out (settleDeadColumns). The depth is a's row
// count, the minibatch, so the kernel walks all of it.
func gemmTransAPacked(dst, a *Matrix, bp []float64, live []int32, ep *epilogue) {
	k, step := a.Rows, a.Cols
	n := span(ep.cols, dst.Cols) // the columns the panels hold
	c1 := span(live, a.Cols)
	if !haveAVX2 {
		for c := 0; c < c1; c++ {
			i := pick(live, c)
			gemmPackedRow(dst.Row(i), a.Data[i:], step, bp, k, n, nil, ep)
		}
		return
	}
	runTiles(dst, a.Data, 1, 8*step, live, c1, bp, k, n, nil, ep)
}

// transADeadRows stores +0, their sum, in the destination rows of
// dst = aᵀ·b that live does not list: a clear where the product would
// have spent k·n multiply-adds to the same effect.
func transADeadRows(dst *Matrix, live []int32) {
	next := 0
	for i := 0; i < dst.Rows; i++ {
		if next < len(live) && int(live[next]) == i {
			next++
			continue
		}
		clear(dst.Row(i))
	}
}
