package mat

// The naive kernels: row-at-a-time products over the unpacked operands,
// the oracles the tests hold every product to bit for bit. Every
// destination element accumulates its terms in ascending k with
// individual roundings, like the tiles; naiveMul and naiveMulTransA step
// over each ±0 element of a, naiveMulTransB (Dot) over none.

// naiveMul computes dst = a·b.
func naiveMul(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		clear(drow)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
}

// naiveMulTransA computes dst = aᵀ·b, where dst row i is column i of a.
func naiveMulTransA(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		drow := dst.Row(i)
		clear(drow)
		for k := 0; k < a.Rows; k++ {
			av := a.At(k, i)
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
}

// naiveMulTransB computes dst = a·bᵀ.
func naiveMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = Dot(a.Row(i), b.Row(j))
		}
	}
}

// naiveBiasAct applies the forward epilogue to every row of dst: the bias
// added (when non-nil), then the activation.
func naiveBiasAct(dst *Matrix, bias []float64, act Activation) {
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j := range row {
			if bias != nil {
				row[j] += bias[j]
			}
			if act == ActReLU && !(row[j] > 0) {
				row[j] = 0
			}
		}
	}
}

// naiveColSums writes each column's sum of m, its rows added in order,
// into dst: the pass SweepGrad's column sums replace.
func naiveColSums(dst []float64, m *Matrix) {
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}
