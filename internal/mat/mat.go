// Package mat provides small dense float64 matrix and vector primitives
// used by the neural-network and statistics packages. It is deliberately
// minimal: row-major storage, no views, no BLAS — only the operations the
// rest of the repository needs, implemented with cache-friendly loops.
package mat

import "fmt"

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

// Mul computes dst = a·b, dst a.Rows×b.Cols, not aliasing a or b: b
// packed into pooled scratch, then MulPackedBiasAct. It stays only
// because the benchmark's GEMM probes (benchmark/probes.go) name it.
func Mul(dst, a, b *Matrix) {
	pb, s := scratchPanels(b)
	MulPackedBiasAct(dst, a, nil, &pb, nil, ActIdentity)
	PutScratch(s)
}

// MulTransA computes dst = aᵀ·b, dst a.Cols×b.Cols: MulTransALive with
// no live sets held. It stays only because the benchmark's GEMM probes
// name it.
func MulTransA(dst, a, b *Matrix) { MulTransALive(dst, a, nil, b, nil) }

// MulTransB computes dst = a·bᵀ, dst a.Rows×b.Rows: b packed into pooled
// scratch, then MulTransBPacked, ungated. The panels' Finite bit is left
// unset, so the product reads b for Inf and NaN before it skips any of
// a's dead depth and, like Dot, hides nothing. It stays only because the
// benchmark's GEMM probes name it.
func MulTransB(dst, a, b *Matrix) {
	pb, s := scratchPanels(b)
	MulTransBPacked(dst, a, nil, &pb, nil, false)
	PutScratch(s)
}

// scratchPanels packs b into pooled scratch: the panels, Finite unset,
// and the matrix holding them, for PutScratch.
func scratchPanels(b *Matrix) (PackedB, *Matrix) {
	s := packB(b, nil)
	return PackedB{K: b.Rows, N: b.Cols, Data: s.Data}, s
}

// MulTransALive computes dst = aᵀ·b, dst a.Cols×b.Cols — dW = xᵀ·g —
// for a caller that holds the operands' live sets: al of a and bl of b,
// or nil (see Live); the ones given hold their scans on return (a gate
// handed to MulTransBPacked next must). It works on the live × live
// block of the destination. A column of a that is ±0 in every row is a
// destination row whose sum is +0, and a column of b that is ±0 in every
// row a destination column whose sum is: the product clears them without
// a kernel. The microkernel sees the live rows only, and — where that
// saves a panel — panels packed from b's live columns only.
func MulTransALive(dst, a *Matrix, al *Live, b *Matrix, bl *Live) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulTransA dimension mismatch")
	}
	al, aBorrowed := borrowLive(al)
	bl, bBorrowed := borrowLive(bl)
	al.Scan(a)
	bl.Scan(b)
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

// MulTransBPacked computes dst = a·bᵀ — gradIn = g·Wᵀ — for b held in
// panels, the form nn keeps its weights in: the transposed panels the
// product runs on are built from pb's. al is the caller's live set of a,
// or nil (see Live). Like Dot, the product hides nothing: a non-finite b
// element turns its destination column NaN whatever it is multiplied by.
// It skips a's dead depth only where the b elements it meets are finite,
// where 0·bv is the ±0 that changes no sum: pb.Finite vouches for that,
// and when it is unset the product reads those rows of b first. out,
// when non-nil, is a scanned live set over the destination's columns
// naming the ones anybody will read: the product computes those, from
// the rows of b behind them alone, and stores +0 in the rest — so a
// non-finite element in an unlisted row of b is hidden. accumulate adds
// the product to dst (dst + sum, one rounding per element: bitwise
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
func MulTransBPacked(dst, a *Matrix, al *Live, pb *PackedB, out *Live, accumulate bool) {
	if a.Cols != pb.N || dst.Rows != a.Rows || dst.Cols != pb.K {
		panic("mat: MulTransBPacked dimension mismatch")
	}
	var keep []int32 // the rows of b, destination columns, to compute: nil is all
	if out != nil {
		if n, ok := out.Count(); !ok || out.k != dst.Cols {
			panic(fmt.Sprintf("mat: MulTransBPacked out set (scanned %t, %d of %d) for %d columns", ok, n, out.k, dst.Cols))
		}
		if keep = out.list(); keep != nil && !accumulate {
			settleDeadColumns(dst, nil, out.deadList())
		}
	}
	ep := epilogue{accumulate: accumulate, cols: keep}
	if a.Cols == 0 {
		storeZeros(dst, span(keep, dst.Cols), &ep)
		return
	}
	al, borrowed := borrowLive(al)
	al.Scan(a)
	live := al.list()
	if live != nil && !pb.Finite && !finiteInPanels(pb, keep, al.deadList()) {
		live = nil
	}
	bp := packBTPanels(pb, keep, live)
	gemmPacked(dst, a, bp.Data, live, &ep)
	PutScratch(bp)
	putLive(al, borrowed)
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

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
