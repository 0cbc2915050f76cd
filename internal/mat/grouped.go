package mat

import "fmt"

// Persistent packed B panels, which every nn.Dense forward multiplies
// against, and a block-diagonal ("grouped") GEMM over them, whose one
// caller is the interval-cost benchmark's grouped-GEMM probe. Every
// destination element accumulates its k terms in ascending order with
// individual roundings on the shared microkernels, so a packed product
// is bit-identical to the naive a·b over the same operands at every row
// count — batch-1 rows run the fused row kernel, which steps over a's
// zeros as the naive loop does.

// PackedB is a B operand packed into nr-wide column panels and kept
// (owned storage, not the scratch pool), so repeated products against
// the same weights — every batch-1 action selection — skip the per-call
// packing that makes batch-1 GEMMs memory-bound. It is also a complete
// representation of the operand: nn keeps every weight tensor in one and
// in nothing else, reading and writing elements in their panel slots.
//
// Element (t, j) of the operand is Data[(j/PanelWidth)·K·PanelWidth +
// t·PanelWidth + j%PanelWidth], columns past N zero: a one-row operand
// (K = 1) lies in its panels as it does row-major. Row t's columns
// [p·PanelWidth, p·PanelWidth+PanelWidth) are contiguous, a run (Run).
// Every writer leaves Finite what a scan of the panels would say: the
// methods here do, and a writer of Data itself (nn's Adam step, a
// decoder filling runs) sets it or calls CheckFinite.
type PackedB struct {
	K, N int // operand shape: K rows (depth) × N cols
	Data []float64
	// Finite says every element Data holds is finite. A product by the
	// operand's transpose takes it instead of a scan (MulTransBPacked).
	Finite bool
}

// PanelWidth is the number of operand columns one packed panel holds.
const PanelWidth = nr

// NewPackedB returns the panels of a k×n operand of zeros.
func NewPackedB(k, n int) *PackedB {
	return &PackedB{K: k, N: n, Data: make([]float64, (n+nr-1)/nr*nr*k), Finite: true}
}

// PackB packs b into a persistent panel buffer.
func PackB(b *Matrix) *PackedB {
	pb := &PackedB{}
	pb.RepackFrom(b)
	return pb
}

// RepackFrom re-packs b in place, reusing the panel buffer when the
// shape still fits.
func (pb *PackedB) RepackFrom(b *Matrix) {
	k, n := b.Rows, b.Cols
	need := (n + nr - 1) / nr * nr * k
	if cap(pb.Data) < need {
		pb.Data = make([]float64, need)
	}
	pb.Data = pb.Data[:need]
	pb.K, pb.N = k, n
	packBInto(pb.Data, b, nil)
	pb.CheckFinite()
}

// CheckFinite sets Finite from a scan of the panels.
func (pb *PackedB) CheckFinite() { pb.Finite = AllFinite(pb.Data) }

// AllFinite reports whether every element of v is finite.
func AllFinite(v []float64) bool {
	var carry uint64
	for _, x := range v {
		carry |= nonFinite(x)
	}
	return carry>>63 == 0
}

// index is the panel slot of element (t, j).
func (pb *PackedB) index(t, j int) int {
	if t < 0 || t >= pb.K || j < 0 || j >= pb.N {
		panic(fmt.Sprintf("mat: element (%d, %d) of a %dx%d PackedB", t, j, pb.K, pb.N))
	}
	return j/nr*pb.K*nr + t*nr + j%nr
}

// At returns element (t, j) of the operand.
func (pb *PackedB) At(t, j int) float64 { return pb.Data[pb.index(t, j)] }

// NumRuns is how many runs hold the operand: K rows of one per panel.
func (pb *PackedB) NumRuns() int { return pb.K * ((pb.N + nr - 1) / nr) }

// Run returns the i-th run of the operand in row-major order: row
// i/panels, its columns in panel i%panels, in place. Runs 0 … NumRuns()−1
// laid end to end are the operand row-major, the order a checkpoint
// stores it in.
func (pb *PackedB) Run(i int) []float64 {
	panels := (pb.N + nr - 1) / nr
	t, p := i/panels, i%panels
	off := p*pb.K*nr + t*nr
	return pb.Data[off : off+min(pb.N-p*nr, nr)]
}

// UnpackInto copies the operand into dst, row-major.
func (pb *PackedB) UnpackInto(dst *Matrix) {
	if dst.Rows != pb.K || dst.Cols != pb.N {
		panic(fmt.Sprintf("mat: UnpackInto a %dx%d matrix from a %dx%d PackedB", dst.Rows, dst.Cols, pb.K, pb.N))
	}
	rest := dst.Data
	for i, n := 0, pb.NumRuns(); i < n; i++ {
		rest = rest[copy(rest, pb.Run(i)):]
	}
}

// CopyFrom makes pb a copy of src, an operand of the same shape: its
// panels and its Finite bit.
func (pb *PackedB) CopyFrom(src *PackedB) {
	if pb.K != src.K || pb.N != src.N {
		panic(fmt.Sprintf("mat: CopyFrom a %dx%d PackedB into a %dx%d one", src.K, src.N, pb.K, pb.N))
	}
	copy(pb.Data, src.Data)
	pb.Finite = src.Finite
}

// MulPackedBiasAct computes dst = act(a·b + bias) — the forward
// product — against a pre-packed operand, in one pass: the bias
// broadcast (when bias is non-nil, length pb.N) and the activation are
// applied in the GEMM epilogue while the result tile is still hot. For
// finite operands it is bitwise the naive a·b, then the bias added to
// every row, then the activation applied element-wise. Products of fewer
// than four rows (batch-1 selection) pay no packing and no column scan:
// one fused kernel call sweeps every panel of a row. al is the caller's
// live set of a, or nil (see Live). out, when non-nil, becomes dst's live
// set, made from the values the epilogue stores — what a scan of dst
// would find, without the scan. It returns the number of a's columns the
// product found live (a.Cols where it made no scan).
func MulPackedBiasAct(dst, a *Matrix, al *Live, pb *PackedB, bias []float64, act Activation, out *Live) (liveK int) {
	if a.Cols != pb.K || dst.Rows != a.Rows || dst.Cols != pb.N {
		panic(fmt.Sprintf("mat: MulPackedBiasAct dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != pb.N {
		panic("mat: MulPackedBiasAct bias length mismatch")
	}
	k, n := a.Cols, dst.Cols
	ep := epilogue{bias: bias, act: act}
	if out != nil {
		ep.or = out.OrFor(n)
		defer out.Seal(n)
	}
	if k == 0 || n == 0 { // the kernels read a's first element and the panels'
		storeZeros(dst, n, &ep)
		return k
	}
	if a.Rows < mr {
		rowScr := GetScratch(1, (n+nr-1)/nr*nr)
		for i := 0; i < a.Rows; i++ {
			gemmPackedRowFused(dst.Row(i), a.Row(i), pb.Data, rowScr.Data, k, n, &ep)
		}
		PutScratch(rowScr)
		return k
	}
	al, borrowed := borrowLive(al)
	al.Scan(a)
	liveK, _ = al.Count()
	gemmPacked(dst, a, pb.Data, al.list(), &ep)
	putLive(al, borrowed)
	return liveK
}

// Group is one band of a grouped product: its packed operand and bias.
type Group struct {
	// Packed is the band's operand (see PackB).
	Packed *PackedB
	// Bias is broadcast-added in the epilogue (nil for none).
	Bias []float64
}

// MulGroupedBiasAct computes the block-diagonal product: a and dst are
// split into len(groups) bands of rowsPer consecutive rows, and band g
// is MulPackedBiasAct of that band alone against group g. It stays only
// because the benchmark's grouped-GEMM probe (benchmark/probes.go) names
// it.
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
		r0, r1 := g*rowsPer, (g+1)*rowsPer
		// Band headers on the stack: RowsView's escape to the heap.
		x := Matrix{Rows: rowsPer, Cols: k, Data: a.Data[r0*k : r1*k]}
		y := Matrix{Rows: rowsPer, Cols: n, Data: dst.Data[r0*n : r1*n]}
		MulPackedBiasAct(&y, &x, nil, groups[g].Packed, groups[g].Bias, act, nil)
	}
}
