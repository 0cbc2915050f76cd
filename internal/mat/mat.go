// Package mat provides small dense float64 matrix and vector primitives
// used by the neural-network and statistics packages. It is deliberately
// minimal: row-major storage, no views, no BLAS — only the operations the
// rest of the repository needs, implemented with cache-friendly loops.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix without
// copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's backing storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowsView returns rows [r0, r1) as a matrix sharing m's backing
// storage.
func (m *Matrix) RowsView(r0, r1 int) *Matrix {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("mat: RowsView [%d,%d) of %d rows", r0, r1, m.Rows))
	}
	return &Matrix{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols]}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Mul computes dst = a·b. dst must be a.Rows×b.Cols and may not alias a
// or b. Large products run on the cache-blocked, register-tiled kernel
// (see tiled.go); small ones stay on the streaming kernel. Both paths
// accumulate every destination element in ascending k order with
// individual roundings, so for finite operands results are bit-identical
// across the tiled and streaming paths and every kernel tier (see
// KernelName). A zero in a hides a non-finite element of b on the streaming
// path always and on the tiled path only when its whole column of a is
// zero; elsewhere the tiled product is NaN (DESIGN.md, "Determinism and
// the non-finite contract").
func Mul(dst, a, b *Matrix) {
	MulBiasAct(dst, a, nil, b, nil, ActIdentity)
}

// MulBiasAct computes dst = act(a·b + bias) in one pass: the bias
// broadcast (when bias is non-nil, length b.Cols) and activation are
// applied in the GEMM epilogue while the result tile is still hot,
// instead of re-walking dst afterwards. For finite operands it is
// bitwise Mul, then the bias added to every row, then the activation
// applied element-wise. al is the caller's live set of a, or nil (see
// Live). It returns the number of a's columns the product found live
// (a.Cols on the streaming path, which makes no scan).
func MulBiasAct(dst, a *Matrix, al *Live, b *Matrix, bias []float64, act Activation) (liveK int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != b.Cols {
		panic("mat: MulBiasAct bias length mismatch")
	}
	if a.Rows >= minPackRows && a.Cols > 0 && b.Cols > 0 {
		bp := packB(b, nil)
		liveK = mulPackedInto(dst, a, al, bp.Data, 0, a.Rows, bias, act)
		PutScratch(bp)
		return liveK
	}
	mulRange(dst, a, b, 0, a.Rows)
	biasActRange(dst, 0, a.Rows, bias, act)
	return a.Cols
}

// MulTransA computes dst = aᵀ·b. dst must be a.Cols×b.Cols. Large
// products run on the tiled kernel; for finite operands all paths are
// bit-identical.
func MulTransA(dst, a, b *Matrix) { MulTransALive(dst, a, nil, b, nil) }

// MulTransALive is MulTransA for a caller that holds the operands' live
// sets: al of a and bl of b, or nil (see Live); the ones given hold their
// scans on return, whichever path ran (a gate handed to MulTransBLive
// next must).
func MulTransALive(dst, a *Matrix, al *Live, b *Matrix, bl *Live) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulTransA dimension mismatch")
	}
	if a.Cols >= minPackRows && a.Rows > 0 && b.Cols > 0 {
		mulTransAPacked(dst, a, al, b, bl)
		return
	}
	mulTransARange(dst, a, b, 0, a.Cols)
	if al != nil {
		al.scan(a, 0, a.Rows)
	}
	if bl != nil {
		bl.scan(b, 0, b.Rows)
	}
}

// mulTransAPacked is the tiled form of MulTransA, over the live × live
// block of the destination. A column of a that is ±0 in every row is a
// destination row whose sum is +0, and a column of b that is ±0 in every
// row a destination column whose sum is: the product clears them without
// a kernel. The microkernel sees the live rows only, and — where that
// saves a panel — panels packed from b's live columns only.
func mulTransAPacked(dst, a *Matrix, al *Live, b *Matrix, bl *Live) {
	al, aBorrowed := borrowLive(al)
	bl, bBorrowed := borrowLive(bl)
	al.scan(a, 0, a.Rows)
	bl.scan(b, 0, b.Rows)
	rows := al.list()
	ep := epilogue{cols: bl.compact()}
	if rows != nil {
		transADeadRows(dst, rows)
	}
	if ep.cols != nil {
		settleDeadColumns(dst, rows, bl.deadList())
	}
	bp := packB(b, ep.cols)
	gemmTransAPacked(dst, a, bp.Data, rows, &ep)
	PutScratch(bp)
	putLive(al, aBorrowed)
	putLive(bl, bBorrowed)
}

// MulTransB computes dst = a·bᵀ. dst must be a.Rows×b.Rows. Large
// products run on the tiled kernel; all paths are bit-identical. Like
// Dot, this product hides nothing: a non-finite b element turns its
// destination column NaN whatever it is multiplied by. The tiled path
// therefore skips a's dead columns only after checking that the b
// columns they meet are finite, where 0·bv is the ±0 that changes no sum.
func MulTransB(dst, a, b *Matrix) {
	MulTransBLive(dst, a, nil, b, false, nil, false)
}

// MulTransBLive is MulTransB for a caller that holds more than the
// operands. al is its live set of a, or nil (see Live). finite says the
// caller knows every element of b to be finite; the product then skips
// a's dead depth without first reading the rows of b it meets for Inf
// and NaN, which false makes it do. out, when non-nil, is a scanned live
// set over the destination's columns naming the ones anybody will read:
// the product computes those, from the rows of b behind them alone, and
// stores +0 in the rest — so a non-finite element in an unlisted row of
// b is hidden, where MulTransB hides nothing. accumulate adds the
// product to dst (dst + sum, one rounding per element: bitwise
// `tmp = a·bᵀ; dst += tmp`) instead of storing it, and then leaves the
// unlisted columns as they stand.
//
// The accumulation precondition: an accumulated dst holds no −0. The
// product adds nothing to the elements it leaves out, and dst + (+0) is
// dst for every value but −0, which it would turn +0. Every accumulation
// target in nn and bdq holds it: it starts the step at +0 (Matrix.Zero)
// and only ever has sums added to it, and in round-to-nearest a sum is −0
// only when both addends are, so none of them ever holds a −0 (DESIGN.md
// §14).
func MulTransBLive(dst, a *Matrix, al *Live, b *Matrix, finite bool, out *Live, accumulate bool) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulTransB dimension mismatch")
	}
	mulTransB(dst, a, al, transBOperand{b: b}, finite, out, accumulate)
}

// MulTransBPacked is MulTransBLive with b held in panels, the form nn
// keeps its weights in: the transposed panels the product runs on are
// built from pb's, and pb.Finite stands in for the caller's finite. It
// is bitwise MulTransBLive over the operand pb holds.
func MulTransBPacked(dst, a *Matrix, al *Live, pb *PackedB, out *Live, accumulate bool) {
	if a.Cols != pb.N || dst.Rows != a.Rows || dst.Cols != pb.K {
		panic("mat: MulTransBPacked dimension mismatch")
	}
	mulTransB(dst, a, al, transBOperand{pb: pb}, pb.Finite, out, accumulate)
}

// transBOperand is the b of a·bᵀ in either of the forms it comes in:
// row-major b, or pb's panels.
type transBOperand struct {
	b  *Matrix
	pb *PackedB
}

// rows is the operand's row count, the product's destination width.
func (o transBOperand) rows() int {
	if o.pb != nil {
		return o.pb.K
	}
	return o.b.Rows
}

func mulTransB(dst, a *Matrix, al *Live, b transBOperand, finite bool, out *Live, accumulate bool) {
	var keep []int32 // the rows of b, destination columns, to compute: nil is all
	if out != nil {
		if n, ok := out.Count(); !ok || out.k != dst.Cols {
			panic(fmt.Sprintf("mat: MulTransBLive out set (scanned %t, %d of %d) for %d columns", ok, n, out.k, dst.Cols))
		}
		if keep = out.list(); keep != nil && !accumulate {
			settleDeadColumns(dst, nil, out.deadList())
		}
	}
	if a.Rows >= minPackRows && a.Cols > 0 && b.rows() > 0 {
		al, borrowed := borrowLive(al)
		al.scan(a, 0, a.Rows)
		live := al.list()
		var bp *Matrix
		if b.pb != nil {
			if live != nil && !finite && !finiteInPanels(b.pb, keep, al.deadList()) {
				live = nil
			}
			bp = packBTPanels(b.pb, keep, live)
		} else {
			if live != nil && !finite && !finiteIn(b.b, keep, al.deadList()) {
				live = nil
			}
			bp = packBT(b.b, keep, live)
		}
		gemmPackedRange(dst, a, bp.Data, 0, a.Rows, live, &epilogue{accumulate: accumulate, cols: keep})
		PutScratch(bp)
		putLive(al, borrowed)
		return
	}
	if b.pb == nil {
		mulTransBRange(dst, a, b.b, 0, a.Rows, keep, accumulate)
		return
	}
	// Too few rows to pack for: the streaming kernel reads b row-major.
	rm := GetScratch(b.pb.K, b.pb.N)
	b.pb.UnpackInto(rm)
	mulTransBRange(dst, a, rm, 0, a.Rows, keep, accumulate)
	PutScratch(rm)
}

// Add computes dst = a + b element-wise; dst may alias a or b.
func Add(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a − b element-wise; dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled computes m += s·a.
func (m *Matrix) AddScaled(s float64, a *Matrix) {
	checkSameShape(m, a)
	for i := range m.Data {
		m.Data[i] += s * a.Data[i]
	}
}

// Hadamard computes dst = a ⊙ b element-wise; dst may alias a or b.
func Hadamard(dst, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ColSumsInto writes the per-column sums of m into dst (length Cols),
// the allocation-free variant for reusable workspaces.
func (m *Matrix) ColSumsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic("mat: ColSumsInto length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// RowMeansInto writes the per-row means of m into dst (length Rows),
// the allocation-free variant for reusable workspaces.
func (m *Matrix) RowMeansInto(dst []float64) {
	if len(dst) != m.Rows {
		panic("mat: RowMeansInto length mismatch")
	}
	if m.Cols == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Sum(m.Row(i)) / float64(m.Cols)
	}
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
