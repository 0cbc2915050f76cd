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
	s := packB(b, nil)
	MulPackedBiasAct(dst, a, nil, &PackedB{K: b.Rows, N: b.Cols, Data: s.Data}, nil, ActIdentity)
	PutScratch(s)
}

// MulTransA computes dst = aᵀ·b, dst a.Cols×b.Cols: MulTransALive with
// no live sets held. It stays only because the benchmark's GEMM probes
// name it.
func MulTransA(dst, a, b *Matrix) { MulTransALive(dst, a, nil, b, nil, nil) }

// MulTransB computes dst = a·bᵀ, dst a.Rows×b.Rows, ungated: b's
// transposed panels packed straight from its rows into pooled scratch,
// then the tiles MulTransBPacked runs. Like Dot it hides nothing: it
// skips a's dead depth only where b is finite there, which it reads b for
// first. It stays only because the benchmark's GEMM probes name it.
func MulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulTransB dimension mismatch")
	}
	var ep epilogue
	if a.Cols == 0 {
		storeZeros(dst, dst.Cols, &ep)
		return
	}
	al, borrowed := borrowLive(nil)
	al.Scan(a)
	live := al.list()
	if live != nil {
		var carry uint64
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			for _, t := range al.deadList() {
				carry |= nonFinite(row[t])
			}
		}
		if carry>>63 != 0 {
			live = nil
		}
	}
	bp := packTransposed(b)
	gemmPacked(dst, a, bp.Data, live, &ep)
	PutScratch(bp)
	putLive(al, borrowed)
}

// MulTransALive computes dst = aᵀ·b, dst a.Cols×b.Cols — dW = xᵀ·g —
// for a caller that holds the operands' live sets: al of a and bl of b,
// or nil (see Live); the ones given hold their scans on return (a gate
// handed to MulTransBPacked next must). It works on the live × live
// block of the destination. A column of a that is ±0 in every row is a
// destination row whose sum is +0, and a column of b that is ±0 in every
// row a destination column whose sum is: the product clears them without
// a kernel. The microkernel sees the live rows only, and — where that
// saves a panel — panels of b's live columns only. bp, when non-nil, is b
// already in panels, every column (SweepGrad writes them): the product
// runs on them, moving the live columns to their front where it leaves
// the dead ones out, instead of packing b.
func MulTransALive(dst, a *Matrix, al *Live, b *Matrix, bl *Live, bp *PackedB) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulTransA dimension mismatch")
	}
	if bp != nil && (bp.K != b.Rows || bp.N != b.Cols) {
		panic(fmt.Sprintf("mat: MulTransALive of a %dx%d b with %dx%d panels", b.Rows, b.Cols, bp.K, bp.N))
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
	if bp != nil {
		if ep.cols != nil {
			compactPanels(bp, ep.cols)
		}
		gemmTransAPacked(dst, a, bp.Data, rows, &ep)
	} else {
		s := packB(b, ep.cols)
		gemmTransAPacked(dst, a, s.Data, rows, &ep)
		PutScratch(s)
	}
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

// RowMeansInto writes the per-row means of m into dst (length Rows),
// the allocation-free variant for reusable workspaces: each row's sum
// (RowSumsInto) over its width.
func (m *Matrix) RowMeansInto(dst []float64) {
	if len(dst) != m.Rows {
		panic("mat: RowMeansInto length mismatch")
	}
	if m.Cols == 0 {
		clear(dst)
		return
	}
	m.RowSumsInto(dst)
	for i := range dst {
		dst[i] /= float64(m.Cols)
	}
}

// RowSumsInto writes the per-row sums of m into dst (length Rows), each
// row's elements added in order from +0, as Sum adds them. Four rows go
// a pass: their four chains of dependent adds overlap.
func (m *Matrix) RowSumsInto(dst []float64) {
	if len(dst) != m.Rows {
		panic("mat: RowSumsInto length mismatch")
	}
	c := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Data[i*c:(i+1)*c], m.Data[(i+1)*c:(i+2)*c], m.Data[(i+2)*c:(i+3)*c], m.Data[(i+3)*c:(i+4)*c]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = Sum(m.Row(i))
	}
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
