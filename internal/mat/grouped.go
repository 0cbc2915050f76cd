package mat

import "fmt"

// Pooled multi-agent dispatch: persistent packed B panels and a
// block-diagonal ("grouped") GEMM. S agents sharing one architecture
// stack their activations row-wise into a single matrix; each band of
// rows multiplies its own agent's weight matrix. Every destination
// element still accumulates its k terms in ascending order with
// individual roundings on the shared microkernels, so a grouped product
// is bit-identical to the per-agent Mul/MulBiasAct calls it replaces —
// including batch-1 bands, which the per-agent path runs on the
// streaming kernel and the grouped path on the packed 1×8 kernel.

// PackedB is a B operand packed once into nr-wide column panels and
// kept (owned storage, not the scratch pool) so repeated products
// against the same weights — the pooled action-selection sweep — skip
// the per-call packing that makes batch-1 GEMMs memory-bound.
//
// Element (t, j) of the operand is Data[(j/PanelWidth)·K·PanelWidth +
// t·PanelWidth + j%PanelWidth], columns past N zero: a writer that
// rewrites the whole operand (nn's Adam kernel) may store to the panels
// itself instead of calling RepackFrom.
type PackedB struct {
	K, N int // operand shape: K rows (depth) × N cols
	Data []float64
}

// PanelWidth is the number of operand columns one packed panel holds.
const PanelWidth = nr

// PackB packs b into a persistent panel buffer.
func PackB(b *Matrix) *PackedB {
	pb := &PackedB{}
	pb.RepackFrom(b)
	return pb
}

// RepackFrom re-packs b in place, reusing the panel buffer when the
// shape still fits. Call after the underlying weights change.
func (pb *PackedB) RepackFrom(b *Matrix) {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	need := panels * nr * k
	if cap(pb.Data) < need {
		pb.Data = make([]float64, need)
	}
	pb.Data = pb.Data[:need]
	pb.K, pb.N = k, n
	packBInto(pb.Data, b, nil)
}

// MulPackedBiasAct computes dst = act(a·b + bias) against a pre-packed
// operand. Unlike MulBiasAct it runs the packed kernels at every row
// count — a single-row product pays no packing and still gets the
// register-tiled microkernel. For finite operands it equals
// MulBiasAct(dst, a, al, b, bias, act) bitwise for the b that was packed.
// al is the caller's live set of a, or nil (see Live). It returns the
// number of a's columns the product found live (a.Cols where it made no
// scan: fewer than four rows).
func MulPackedBiasAct(dst, a *Matrix, al *Live, pb *PackedB, bias []float64, act Activation) (liveK int) {
	if a.Cols != pb.K || dst.Rows != a.Rows || dst.Cols != pb.N {
		panic(fmt.Sprintf("mat: MulPackedBiasAct dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != pb.N {
		panic("mat: MulPackedBiasAct bias length mismatch")
	}
	return mulPackedInto(dst, a, al, pb.Data, 0, a.Rows, bias, act)
}

// mulPackedInto runs rows [r0, r1) of a packed product and returns the
// live-column count it ran over; al is the caller's live set of those
// rows, or nil. The degenerate shapes (k = 0 or n = 0) zero-fill and
// apply the epilogue exactly like the streaming kernel.
func mulPackedInto(dst, a *Matrix, al *Live, bp []float64, r0, r1 int, bias []float64, act Activation) (liveK int) {
	if a.Cols == 0 || dst.Cols == 0 {
		for i := r0; i < r1; i++ {
			clear(dst.Row(i))
		}
		biasActRange(dst, r0, r1, bias, act)
		return a.Cols
	}
	ep := epilogue{bias: bias, act: act}
	if r1-r0 < mr {
		// Narrow products (solo batch-1 action selection on persistent
		// packs): the fused multi-panel row kernel skips the per-panel
		// call dispatch and the column scan.
		k, n := a.Cols, dst.Cols
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		for i := r0; i < r1; i++ {
			gemmPackedRowFused(dst.Row(i), a.Row(i), bp, rowScr.Data, k, n, &ep)
		}
		PutScratch(rowScr)
		return k
	}
	al, borrowed := borrowLive(al)
	al.scan(a, r0, r1)
	liveK, _ = al.Count()
	gemmPackedRange(dst, a, bp, r0, r1, al.list(), &ep)
	putLive(al, borrowed)
	return liveK
}

// Group is one band of a grouped product: the operand (packed when the
// caller caches panels, raw otherwise) and its bias.
type Group struct {
	// B is the raw operand, packed into scratch per call when Packed is
	// nil. Ignored when Packed is set.
	B *Matrix
	// Packed is the pre-packed operand (see PackB), used as-is.
	Packed *PackedB
	// Bias is broadcast-added in the epilogue (nil for none).
	Bias []float64
}

// MulGroupedBiasAct computes the block-diagonal product: a and dst are
// split into len(groups) bands of rowsPer consecutive rows, and band g
// is act(a_g·B_g + bias_g). Every operand must share the depth a.Cols
// and the output width dst.Cols (agents share one architecture). Each
// band is bit-identical to MulBiasAct over that band alone.
func MulGroupedBiasAct(dst, a *Matrix, rowsPer int, groups []Group, act Activation) {
	if rowsPer <= 0 {
		panic("mat: MulGroupedBiasAct rowsPer must be positive")
	}
	if a.Rows != rowsPer*len(groups) || dst.Rows != a.Rows {
		panic(fmt.Sprintf("mat: MulGroupedBiasAct has %d rows for %d groups of %d",
			a.Rows, len(groups), rowsPer))
	}
	k, n := a.Cols, dst.Cols
	for g := range groups {
		gk, gn := groupShape(&groups[g])
		if gk != k || gn != n {
			panic(fmt.Sprintf("mat: MulGroupedBiasAct group %d is %dx%d, want %dx%d", g, gk, gn, k, n))
		}
		if groups[g].Bias != nil && len(groups[g].Bias) != n {
			panic("mat: MulGroupedBiasAct bias length mismatch")
		}
	}
	if len(groups) == 0 {
		return
	}
	if rowsPer >= mr {
		// Wide bands: each band runs the full tiled range, packing into
		// scratch when the caller holds no persistent panels.
		for g := range groups {
			r0 := g * rowsPer
			bp, scratch := groupPanels(&groups[g])
			mulPackedInto(dst, a, nil, bp, r0, r0+rowsPer, groups[g].Bias, act)
			if scratch != nil {
				PutScratch(scratch)
			}
		}
		return
	}
	// Narrow bands (pooled batch-1 action selection): one fused row
	// kernel call per stacked row; each row resolves its own group's
	// panels.
	if rowsPer == 1 && k > 0 && n > 0 && allPacked(groups) {
		// Every group pre-packed (the pooled steady state): no panel
		// indirection to build, no scratch bookkeeping — the row loop
		// reads each group's panels straight out of its PackedB.
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		for i := 0; i < a.Rows; i++ {
			ep := epilogue{bias: groups[i].Bias, act: act}
			gemmPackedRowFused(dst.Row(i), a.Row(i), groups[i].Packed.Data, rowScr.Data, k, n, &ep)
		}
		PutScratch(rowScr)
		return
	}
	var scratches []*Matrix
	panels := make([][]float64, len(groups))
	for g := range groups {
		bp, scratch := groupPanels(&groups[g])
		panels[g] = bp
		if scratch != nil {
			scratches = append(scratches, scratch)
		}
	}
	if k == 0 || n == 0 {
		dst.Zero()
		biasActRange(dst, 0, dst.Rows, nil, ActIdentity)
		for g := range groups {
			r0 := g * rowsPer
			biasActRange(dst, r0, r0+rowsPer, groups[g].Bias, act)
		}
	} else {
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		for i := 0; i < a.Rows; i++ {
			g := i / rowsPer
			ep := epilogue{bias: groups[g].Bias, act: act}
			gemmPackedRowFused(dst.Row(i), a.Row(i), panels[g], rowScr.Data, k, n, &ep)
		}
		PutScratch(rowScr)
	}
	for _, s := range scratches {
		PutScratch(s)
	}
}

// allPacked reports whether every group carries persistent panels.
func allPacked(groups []Group) bool {
	for g := range groups {
		if groups[g].Packed == nil {
			return false
		}
	}
	return true
}

func groupShape(g *Group) (k, n int) {
	if g.Packed != nil {
		return g.Packed.K, g.Packed.N
	}
	return g.B.Rows, g.B.Cols
}

// groupPanels resolves a group's packed panels, packing into scratch
// (returned for release) when no persistent pack is attached.
func groupPanels(g *Group) (bp []float64, scratch *Matrix) {
	if g.Packed != nil {
		return g.Packed.Data, nil
	}
	scratch = packB(g.B, nil)
	return scratch.Data, scratch
}
