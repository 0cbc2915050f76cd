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
// same product (DESIGN.md §5m has the argument and the non-finite
// contract). Each tiled product scans its a operand once and its kernels
// walk the resulting list.

// liveSet is the scratch of one scan: the column-wise OR of the
// operand's bit patterns and the index lists cut from it.
type liveSet struct {
	or   []uint64
	live []int32
	dead []int32
}

// liveFree recycles liveSets so a warm product allocates nothing.
var liveFree struct {
	sync.Mutex
	sets []*liveSet
}

func getLive(k int) *liveSet {
	liveFree.Lock()
	var ls *liveSet
	if n := len(liveFree.sets); n > 0 {
		ls = liveFree.sets[n-1]
		liveFree.sets = liveFree.sets[:n-1]
	}
	liveFree.Unlock()
	if ls == nil {
		ls = &liveSet{}
	}
	if cap(ls.or) < k {
		ls.or = make([]uint64, k)
		ls.live = make([]int32, k)
		ls.dead = make([]int32, k)
	}
	return ls
}

// putLive returns a scan's scratch; nil (no scan was made) is ignored.
func putLive(ls *liveSet) {
	if ls == nil {
		return
	}
	liveFree.Lock()
	liveFree.sets = append(liveFree.sets, ls)
	liveFree.Unlock()
}

// liveColumns scans rows [r0, r1) of a and returns, ascending, the
// columns that hold something other than ±0 in at least one of them
// (NaN counts as something). live is nil when nothing can be skipped,
// every column being live. The caller hands ls back with putLive once the
// product is done.
func liveColumns(a *Matrix, r0, r1 int) (ls *liveSet, live []int32) {
	k := a.Cols
	if k == 0 {
		return nil, nil
	}
	ls = getLive(k)
	or := ls.or[:k]
	clear(or)
	for i := r0; i < r1; i += 4 {
		// Four rows a pass; a last pass of fewer repeats its final row,
		// which an OR does not mind.
		last := min(i+3, r1-1)
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
	live = ls.live[:k]
	n := 0
	for c, v := range or {
		live[n] = int32(c)
		if v<<1 != 0 { // anything but ±0
			n++
		}
	}
	if n == k {
		putLive(ls)
		return nil, nil
	}
	return ls, live[:n]
}

// deadColumns lists, ascending, the columns a scan found dead.
func (ls *liveSet) deadColumns(k int) []int32 {
	dead := ls.dead[:0]
	for c, v := range ls.or[:k] {
		if v<<1 == 0 {
			dead = append(dead, int32(c))
		}
	}
	return dead
}

// finiteColumns reports whether every element of b in the given columns
// is finite: an exponent of all ones carries into the sign bit when one
// unit of the exponent field is added to the magnitude.
func finiteColumns(b *Matrix, cols []int32) bool {
	var carry uint64
	for j := 0; j < b.Rows; j++ {
		row := b.Row(j)
		for _, t := range cols {
			carry |= math.Float64bits(row[t])&^(1<<63) + 1<<52
		}
	}
	return carry>>63 == 0
}
