package mat

import (
	"math"
	"sync"
)

// Live-column compaction. A ReLU network's activations and masked
// gradients have whole columns that are ±0 in every row of a minibatch
// (dead units): a third to three quarters of them at paper scale. Such a
// column contributes av·bv = ±0 to every destination element, and for a
// finite b adding ±0 to an accumulator that started at +0 changes no
// bit, so the product over the remaining — live — columns alone is the
// same product (DESIGN.md, "Determinism and the non-finite contract",
// has the argument; "The training step and its kernel tiers" what the
// backward pass makes of the sets of both its operands).

// Live is the live-column set of one operand: which of its columns hold
// something other than ±0 in at least one row (NaN counts as something).
// It is a memo its holder keeps for as long as the operand's contents
// stand. Every tiled product scans each operand it is handed no set for;
// a caller whose operand meets several products — an activation read by
// the forward product, by dW = xᵀ·g and as the gate of g·Wᵀ, or the
// representation four branch layers share — hands them all one Live
// instead: the first product that needs the set scans, the rest reuse
// it, and the holder calls Reset when it rewrites the operand. The zero
// value is an unscanned set; a warm one allocates nothing.
type Live struct {
	or      []uint64 // the scan's column-wise OR of the operand's bit patterns
	cols    []int32  // cols[:n] the live columns, ascending; cols[n:k] the dead ones
	n, k    int      // live count, operand width
	scanned bool
}

// Reset forgets the scan: the operand it was made of has new contents.
func (l *Live) Reset() { l.scanned = false }

// Count returns how many columns the held scan found live; ok is false
// when no product has scanned the operand since Reset (a forward product
// of fewer than four rows makes no scan).
func (l *Live) Count() (n int, ok bool) { return l.n, l.scanned }

// liveFree recycles the sets of products that were handed none, so a
// warm product allocates nothing.
var liveFree struct {
	sync.Mutex
	sets []*Live
}

// borrowLive returns l, or when the caller holds no set for the operand
// an unscanned one of the product's own, to be handed back with putLive.
func borrowLive(l *Live) (set *Live, borrowed bool) {
	if l != nil {
		return l, false
	}
	liveFree.Lock()
	if n := len(liveFree.sets); n > 0 {
		l = liveFree.sets[n-1]
		liveFree.sets = liveFree.sets[:n-1]
	}
	liveFree.Unlock()
	if l == nil {
		l = &Live{}
	}
	l.scanned = false
	return l, true
}

// putLive returns a borrowed set.
func putLive(l *Live, borrowed bool) {
	if !borrowed {
		return
	}
	liveFree.Lock()
	liveFree.sets = append(liveFree.sets, l)
	liveFree.Unlock()
}

// Scan makes l the live set of a, unless it already holds one. The
// products scan what they need; a holder calls Scan itself when a later
// product reads its set as a gate (MulTransBPacked's out) and the products
// before it may have made no scan.
func (l *Live) Scan(a *Matrix) {
	k := a.Cols
	if l.scanned {
		if l.k != k {
			panic("mat: Live set held for an operand of another width")
		}
		return
	}
	or := l.OrFor(k)
	for i := 0; i < a.Rows && k > 0; i += 4 {
		// Four rows a pass; a last pass of fewer repeats its final row,
		// which an OR does not mind.
		last := min(i+3, a.Rows-1)
		x0, x1, x2, x3 := a.Row(i), a.Row(min(i+1, last)), a.Row(min(i+2, last)), a.Row(last)
		if haveAVX2 {
			orRows4(k, &x0[0], &x1[0], &x2[0], &x3[0], &or[0])
			continue
		}
		for c := range or {
			or[c] |= math.Float64bits(x0[c]) | math.Float64bits(x1[c]) |
				math.Float64bits(x2[c]) | math.Float64bits(x3[c])
		}
	}
	l.Seal(k)
}

// CopyFrom makes l the set src holds, or an unscanned one when src is nil
// or unscanned: the set of an operand a layer passes through as it is.
func (l *Live) CopyFrom(src *Live) {
	if src == nil || !src.scanned {
		l.scanned = false
		return
	}
	l.OrFor(src.k)
	copy(l.cols, src.cols[:src.k])
	l.n, l.k, l.scanned = src.n, src.k, true
}

// OrFor returns the set's column-wise OR for an operand k wide, cleared:
// a scan, or a writer of the operand — SweepGrad, a forward product's
// epilogue, nn's dropout — ORs each element's bits into its column, and
// Seal makes the set of it.
func (l *Live) OrFor(k int) []uint64 {
	if cap(l.or) < k {
		l.or = make([]uint64, k)
		l.cols = make([]int32, k)
	}
	or := l.or[:k]
	clear(or)
	return or
}

// Seal makes l the live set whose column-wise OR OrFor(k) holds.
func (l *Live) Seal(k int) {
	or := l.or[:k]
	// Live columns fill cols from the front, dead ones from the back; each
	// column is written to both ends and one end advances past it. The two
	// meet at the last column.
	cols := l.cols[:k]
	n, back := 0, k-1
	for c, v := range or {
		cols[n], cols[back] = int32(c), int32(c)
		v <<= 1 // drops the sign: zero iff the column is ±0 throughout
		live := int((v | -v) >> 63)
		n += live
		back -= 1 - live
	}
	l.n, l.k, l.scanned = n, k, true
}

// list returns the live columns, ascending, or nil when every column is
// live and nothing can be skipped: the kernels then walk the operand in
// place.
func (l *Live) list() []int32 {
	if l.n == l.k {
		return nil
	}
	return l.cols[:l.n]
}

// compact returns the live columns when packing them alone takes fewer
// nr-wide panels than packing every column, nil otherwise: gathering a
// product's columns pays only where it removes a panel's worth of tile
// kernels, and a layer a few units wide is left alone.
func (l *Live) compact() []int32 {
	if (l.n+nr-1)/nr == (l.k+nr-1)/nr {
		return nil
	}
	return l.cols[:l.n]
}

// deadList returns the columns the scan found dead (descending).
func (l *Live) deadList() []int32 { return l.cols[l.n:l.k] }

// A subset of a product's rows or columns is an ascending index list,
// and nil stands for all of them, in place: span is how many indices the
// list stands for out of all, pick the i-th of them.
func span(list []int32, all int) int {
	if list == nil {
		return all
	}
	return len(list)
}

func pick(list []int32, i int) int {
	if list == nil {
		return i
	}
	return int(list[i])
}

// nonFinite is zero in its sign bit exactly when v is finite: an exponent
// of all ones carries into the sign bit when one unit of the exponent
// field is added to the magnitude. ORed over many values it answers for
// all of them.
func nonFinite(v float64) uint64 { return math.Float64bits(v)&^(1<<63) + 1<<52 }

// finiteInPanels reports whether every element of the operand pb holds
// in the given rows (all of them when rows is nil) and columns is finite.
func finiteInPanels(pb *PackedB, rows, cols []int32) bool {
	var carry uint64
	for j, n := 0, span(rows, pb.K); j < n; j++ {
		r := pick(rows, j)
		for _, t := range cols {
			carry |= nonFinite(pb.At(r, int(t)))
		}
	}
	return carry>>63 == 0
}

// settleDeadColumns stores +0, the sum a column-mapped product leaves
// out, in the listed rows of dst (every row when rows is nil) and the dead
// destination columns. Only a storing product calls it: an accumulating
// one leaves those elements as they stand (MulTransBPacked's accumulation
// precondition).
func settleDeadColumns(dst *Matrix, rows, dead []int32) {
	for i, n := 0, span(rows, dst.Rows); i < n; i++ {
		drow := dst.Row(pick(rows, i))
		for _, c := range dead {
			drow[c] = 0
		}
	}
}
