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
// only on a non-finite b element under a zero a element (DESIGN.md §5m).
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

// packB packs b into nr-wide column panels: panel p holds destination
// columns [p·nr, p·nr+nr), laid out k-major so the microkernel streams
// it linearly. Columns past b.Cols are zero-padded (the pad lanes
// accumulate only ±0·av terms that never reach the destination).
func packB(b *Matrix) *Matrix {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	pm := GetScratch(1, panels*nr*k)
	packBInto(pm.Data, b)
	return pm
}

// packBInto packs b into bp (length ≥ panels·nr·k), the shared core of
// the scratch packB and the persistent PackedB.
func packBInto(bp []float64, b *Matrix) {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		out := bp[p*nr*k : (p+1)*nr*k]
		for t := 0; t < k; t++ {
			src := b.Data[t*n+j0 : t*n+j0+w]
			dst := out[t*nr : t*nr+nr]
			copy(dst, src)
			for jj := w; jj < nr; jj++ {
				dst[jj] = 0
			}
		}
	}
}

// packBT packs bᵀ into nr-wide panels for MulTransB: panel p holds
// destination columns [p·nr, p·nr+nr), i.e. rows of b, transposed so the
// microkernel streams k-major.
func packBT(b *Matrix) *Matrix {
	n, k := b.Rows, b.Cols // destination has n columns, depth k
	panels := (n + nr - 1) / nr
	pm := GetScratch(1, panels*nr*k)
	bp := pm.Data
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		out := bp[p*nr*k : (p+1)*nr*k]
		for jj := 0; jj < w; jj++ {
			row := b.Data[(j0+jj)*k : (j0+jj+1)*k]
			for t, v := range row {
				out[t*nr+jj] = v
			}
		}
		for jj := w; jj < nr; jj++ {
			for t := 0; t < k; t++ {
				out[t*nr+jj] = 0
			}
		}
	}
	return pm
}

// gemmPackedRange computes destination rows [r0, r1) of dst = a·(packed
// panels) with the fused epilogue. live lists, ascending, the k-columns
// of a that hold anything other than ±0 in some row of the product (see
// liveColumns); nil means every column, and the kernel then walks the
// whole depth. Every term of a live column is multiplied and added —
// there is no per-element zero test — so what a product skips is decided
// once per product, not once per element.
func gemmPackedRange(dst, a *Matrix, bp []float64, r0, r1 int, live []int32, bias []float64, act Activation) {
	k := a.Cols
	n := dst.Cols
	if !haveAVX2 {
		for i := r0; i < r1; i++ {
			gemmPackedRow(dst.Row(i), a.Row(i), bp, k, n, live, false, bias, act)
		}
		return
	}
	panels := (n + nr - 1) / nr
	var acc [zr * nr]float64
	var ap [zr]*float64
	for i := r0; i < r1; {
		// A last tile of fewer than h rows repeats its final row: the
		// kernel computes h rows either way and the repeats are not
		// stored, so every row of the range runs a tile kernel.
		h := tileHeight(r1 - i)
		rows := min(r1-i, h)
		for q := 0; q < h; q++ {
			ap[q] = &a.Data[(i+min(q, rows-1))*k]
		}
		for p := 0; p < panels; p++ {
			kernTile(h, k, live, &ap, &bp[p*nr*k], &acc)
			j0 := p * nr
			w := min(n-j0, nr)
			for q := 0; q < rows; q++ {
				storeTile(dst.Row(i + q)[j0:j0+w], acc[q*nr:], false, bias, act, j0)
			}
		}
		i += rows
	}
}

// tileHeight is the height of the next register tile when rows are left:
// zr wherever the CPU has AVX-512 and a full tile remains, mr otherwise.
func tileHeight(rows int) int {
	if haveAVX512 && rows >= zr {
		return zr
	}
	return mr
}

// kernTile runs the h×nr microkernel the operand calls for — the indexed
// one when a has dead columns, the dense one otherwise — at the register
// width of the tile height. All of them add every term in ascending k.
func kernTile(h, k int, live []int32, ap *[zr]*float64, panel *float64, acc *[zr * nr]float64) {
	if h == zr {
		switch {
		case live == nil:
			kern8x8n(k, ap[0], ap[1], ap[2], ap[3], ap[4], ap[5], ap[6], ap[7], panel, acc)
		case len(live) == 0:
			*acc = [zr * nr]float64{}
		default:
			kern8x8ni(len(live), &live[0], ap[0], ap[1], ap[2], ap[3], ap[4], ap[5], ap[6], ap[7], panel, acc)
		}
		return
	}
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
// finite operands it equals the tiled kernels bit for bit (DESIGN.md
// §5m); a non-finite b element under a zero a element stays hidden here.
func gemmPackedRowFused(drow, arow, bp, rowAcc []float64, k, n int, bias []float64, act Activation) {
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
	storeTile(drow[:n], rowAcc, false, bias, act, 0)
}

// gemmPackedRow is the portable (no-assembly) form of one destination
// row: every packed panel through kernRowGo, walking the live list when
// there is one, then the shared epilogue.
func gemmPackedRow(drow, arow, bp []float64, k, n int, live []int32, accumulate bool, bias []float64, act Activation) {
	panels := (n + nr - 1) / nr
	var acc [nr]float64
	for p := 0; p < panels; p++ {
		kernRowGo(arow[:k], bp[p*nr*k:(p+1)*nr*k], &acc, live, false)
		j0 := p * nr
		w := min(n-j0, nr)
		storeTile(drow[j0:j0+w], acc[:], accumulate, bias, act, j0)
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

// storeTile writes one microkernel row back into the destination,
// applying the fused epilogue: accumulate (+=), bias broadcast and/or
// activation. drow is the destination slice for columns [j0, j0+w).
func storeTile(drow, acc []float64, accumulate bool, bias []float64, act Activation, j0 int) {
	acc = acc[:len(drow)]
	if bias != nil {
		bias = bias[j0 : j0+len(drow)]
	}
	switch {
	case accumulate:
		for jj, v := range acc {
			drow[jj] += v
		}
	case bias == nil && act == ActIdentity:
		copy(drow, acc)
	case bias == nil: // ActReLU
		for jj, v := range acc {
			drow[jj] = relu(v)
		}
	case act == ActReLU:
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
// the caller settles without a kernel (transADeadRows). The depth is
// a's row count, the minibatch, so the kernel walks all of it.
func gemmTransAPacked(dst, a *Matrix, bp []float64, live []int32, accumulate bool) {
	k := a.Rows
	n := dst.Cols
	cb := GetScratch(zr, k)
	defer PutScratch(cb)
	c1 := a.Cols
	if live != nil {
		c1 = len(live)
	}
	row := func(c int) int {
		if live != nil {
			return int(live[c])
		}
		return c
	}
	if !haveAVX2 {
		col := cb.Row(0)
		for c := 0; c < c1; c++ {
			a.ColInto(col, row(c))
			gemmPackedRow(dst.Row(row(c)), col, bp, k, n, nil, accumulate, nil, ActIdentity)
		}
		return
	}
	panels := (n + nr - 1) / nr
	var acc [zr * nr]float64
	var ap [zr]*float64
	for c := 0; c < c1; {
		// A last tile of fewer than h rows repeats its final column, like
		// gemmPackedRange's.
		h := tileHeight(c1 - c)
		cnt := min(c1-c, h)
		for q := 0; q < h; q++ {
			if q < cnt {
				a.ColInto(cb.Row(q), row(c+q))
			}
			ap[q] = &cb.Data[min(q, cnt-1)*k]
		}
		for p := 0; p < panels; p++ {
			kernTile(h, k, nil, &ap, &bp[p*nr*k], &acc)
			j0 := p * nr
			w := min(n-j0, nr)
			for q := 0; q < cnt; q++ {
				storeTile(dst.Row(row(c + q))[j0:j0+w], acc[q*nr:], accumulate, nil, ActIdentity, j0)
			}
		}
		c += cnt
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
