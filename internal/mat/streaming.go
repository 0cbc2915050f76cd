package mat

// The streaming kernels: row-at-a-time products over the unpacked
// operands. Shapes too small to amortise packing run on them (batch-1
// action selection above all), and the tests hold the tiled path to them
// bit for bit. Every destination element accumulates its terms in
// ascending k with individual roundings, like the tiles.

// mulRange computes rows [r0, r1) of dst = a·b.
func mulRange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTransARange computes rows [r0, r1) of dst = aᵀ·b, where dst row i
// is column i of a. For each destination element the k-terms accumulate
// in ascending order.
func mulTransARange(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTransBRange computes rows [r0, r1) of dst = a·bᵀ — in the
// destination columns cols lists, when it is non-nil, and the others are
// not touched; added to dst instead of stored, when accumulate is set.
func mulTransBRange(dst, a, b *Matrix, r0, r1 int, cols []int32, accumulate bool) {
	n := span(cols, b.Rows)
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for c := 0; c < n; c++ {
			j := pick(cols, c)
			if v := Dot(arow, b.Row(j)); accumulate {
				drow[j] += v
			} else {
				drow[j] = v
			}
		}
	}
}
