package mat

import (
	"fmt"
	"math"
)

// Pending is what the owner of a gradient has still to apply to it before
// a layer's backward reads it, left to the layer's one sweep over the
// gradient (SweepGrad) instead of a pass of its own: row i less Shift[i]
// (nil: none), then times Scale (0: none). bdq's dueling heads leave their
// centring as a shift, and its 1/K and 1/D rescales as a scale.
type Pending struct {
	Shift []float64
	Scale float64
}

// none reports whether p applies nothing.
func (p *Pending) none() bool { return p.Shift == nil && p.Scale == 0 }

// SweepGrad is the one pass a dense layer's backward makes over its
// incoming gradient g before its two products. Each element v of g
// becomes v − p.Shift[i] (row i), then v·p.Scale, then — when mask is
// non-nil — v where mask's element is > 0 and +0 elsewhere (the gradient
// of a ReLU whose output mask is): the operations the separate passes
// made, in their order, so each element is theirs bit for bit. The sweep
// writes what it makes four times over:
//   - into dst, row-major (dst is nil exactly when nothing applies: g is
//     then the gradient itself);
//   - its column sums into sums, each column's rows added in order from
//     +0;
//   - its live set into live, which is what Scan would find in it;
//   - its panels, every column, into gp (K = g's rows, N = its columns,
//     Data at least that shape's panels): the b operand MulTransALive
//     would otherwise pack.
func SweepGrad(dst, g *Matrix, p Pending, mask *Matrix, sums []float64, live *Live, gp *PackedB) {
	rows, cols := g.Rows, g.Cols
	switch {
	case (dst == nil) != (mask == nil && p.none()):
		panic("mat: SweepGrad stores into dst exactly when it has something to apply")
	case dst != nil && (dst.Rows != rows || dst.Cols != cols),
		mask != nil && (mask.Rows != rows || mask.Cols != cols),
		p.Shift != nil && len(p.Shift) != rows,
		len(sums) != cols,
		gp.K != rows || gp.N != cols || len(gp.Data) < (cols+nr-1)/nr*nr*rows:
		panic(fmt.Sprintf("mat: SweepGrad of a %dx%d gradient: dst, mask, shift, sums or panels of another shape", rows, cols))
	}
	or := live.orFor(cols)
	clear(sums)
	if rows > 0 && cols > 0 {
		if haveAVX512 {
			sweepKernelFor(dst, g, &p, mask, sums, or, gp.Data)
		} else {
			sweepRows(dst, g, &p, mask, sums, or, gp.Data)
		}
	}
	live.seal(cols)
}

// sweepRows is SweepGrad's portable loop, and the oracle of its kernel: a
// row's elements made into dst's row, then added, ORed and stored into the
// panels. The pad lanes of a last panel of fewer than nr columns get +0.
func sweepRows(dst, g *Matrix, p *Pending, mask *Matrix, sums []float64, or []uint64, bp []float64) {
	rows, cols := g.Rows, g.Cols
	sums, or = sums[:cols], or[:cols]
	for i := 0; i < rows; i++ {
		v := g.Row(i)
		if dst != nil {
			d := dst.Row(i)[:cols]
			if p.Shift != nil {
				sh := p.Shift[i]
				for j, x := range v {
					d[j] = x - sh
				}
				v = d
			}
			if s := p.Scale; s != 0 {
				for j, x := range v {
					d[j] = x * s
				}
				v = d
			}
			if mask != nil {
				y := mask.Row(i)[:cols]
				for j, x := range v {
					b := math.Float64bits(x)
					if math.Float64bits(y[j])-1 >= 0x7FF0000000000000 { // !(y > 0)
						b = 0
					}
					d[j] = math.Float64frombits(b)
				}
			}
			v = d
		}
		for j, x := range v {
			sums[j] += x
			or[j] |= math.Float64bits(x)
			bp[j/nr*rows*nr+i*nr+j%nr] = x
		}
	}
	if w := cols % nr; w != 0 {
		last := bp[cols/nr*rows*nr : (cols/nr+1)*rows*nr]
		for i := 0; i < rows; i++ {
			clear(last[i*nr+w : i*nr+nr])
		}
	}
}

// sweepArgs is sweepKernel's argument block (the assembly reads the
// fields by offset).
type sweepArgs struct {
	rows   int      // 0
	cols   int      // 8: g's width, and the row stride of g, dst and mask
	g      *float64 // 16
	dst    *float64 // 24: nil stores no rows
	mask   *float64 // 32: nil for none
	shift  *float64 // 40: nil for none
	scale  float64  // 48: 0 for none
	sums   *float64 // 56
	or     *uint64  // 64
	panels *float64 // 72
}

// sweepKernelFor runs sweepKernel, the AVX-512 twin of sweepRows: a panel
// of eight columns at a time down every row, its sums and ORs held in
// registers.
func sweepKernelFor(dst, g *Matrix, p *Pending, mask *Matrix, sums []float64, or []uint64, bp []float64) {
	s := sweepArgs{rows: g.Rows, cols: g.Cols, g: &g.Data[0], sums: &sums[0], or: &or[0], panels: &bp[0]}
	if p.Scale != 0 { // the kernel tests the bits: −0 would read as a scale
		s.scale = p.Scale
	}
	if dst != nil {
		s.dst = &dst.Data[0]
	}
	if mask != nil {
		s.mask = &mask.Data[0]
	}
	if p.Shift != nil {
		s.shift = &p.Shift[0]
	}
	sweepKernel(&s)
}

// compactPanels moves the listed columns of the operand bp holds, every
// column of it, to the front of its panels in order, as packB would have
// packed them alone, and pads the last panel they fill with +0. It goes a
// destination panel at a time, a row of it at a time, gathering the row's
// columns before it stores them. A column moves to a slot no later than
// its own, and the only source a row's store can overwrite is a column of
// that same row, already gathered, so the move needs no second buffer.
func compactPanels(bp *PackedB, cols []int32) {
	k := bp.K
	for j0 := 0; j0 < len(cols); j0 += nr {
		w := min(len(cols)-j0, nr)
		var src [nr]int // where each column's first row lies
		for jj := range w {
			c := int(cols[j0+jj])
			src[jj] = c/nr*k*nr + c%nr
		}
		dst := bp.Data[j0/nr*k*nr : (j0/nr+1)*k*nr]
		if haveAVX512 {
			gatherPanel(k, &bp.Data[0], &src, 1<<w-1, &dst[0])
			continue
		}
		for t := 0; t < k; t++ {
			var row [nr]float64
			for jj := range w {
				row[jj] = bp.Data[src[jj]+t*nr]
			}
			copy(dst[t*nr:t*nr+nr], row[:])
		}
	}
}
