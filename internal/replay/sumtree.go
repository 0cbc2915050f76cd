// Package replay implements experience-replay buffers for deep
// Q-learning: a plain uniform ring buffer and the prioritised replay of
// Schaul et al. (2015) backed by a sum-tree, as used by Twig with a
// buffer of 10⁶ transitions, priority exponent α = 0.6 and
// importance-sampling exponent β annealed from 0.4 to 1.
package replay

import "fmt"

// pageSize is the number of sum-tree nodes per page (4 KB). Node
// indices are split as unsigned values so the division is a shift and
// the in-page index needs no bounds check.
const pageSize = 512

// sumTree is a complete binary tree whose leaves hold priorities and
// whose internal nodes hold subtree sums, supporting O(log n) updates and
// prefix-sum sampling. The 2*capacity-1 nodes are laid out as an implicit
// heap (leaves start at capacity-1) cut into pages that exist only once
// written: an absent page is a page of zeros, so every read, sum and
// descent sees the values a dense array would hold while memory follows
// the leaves in use, not the capacity.
type sumTree struct {
	capacity int
	pages    []*[pageSize]float64
}

func newSumTree(capacity int) *sumTree {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: sum-tree capacity %d", capacity))
	}
	numPages := (2*capacity - 1 + pageSize - 1) / pageSize
	return &sumTree{capacity: capacity, pages: make([]*[pageSize]float64, numPages)}
}

func (t *sumTree) numNodes() int { return 2*t.capacity - 1 }

// node returns the value of heap node idx.
func (t *sumTree) node(idx int) float64 {
	if pg := t.pages[uint(idx)/pageSize]; pg != nil {
		return pg[uint(idx)%pageSize]
	}
	return 0
}

// ref returns the storage of heap node idx, materialising its page.
func (t *sumTree) ref(idx int) *float64 {
	pg := t.pages[uint(idx)/pageSize]
	if pg == nil {
		pg = new([pageSize]float64)
		t.pages[uint(idx)/pageSize] = pg
	}
	return &pg[uint(idx)%pageSize]
}

// forEachNonzero calls fn for every non-zero node in ascending heap
// index order, visiting only materialised pages.
func (t *sumTree) forEachNonzero(fn func(idx int, v float64)) {
	for pi, pg := range t.pages {
		if pg == nil {
			continue
		}
		for j, v := range pg {
			if v != 0 {
				fn(pi*pageSize+j, v)
			}
		}
	}
}

// total returns the sum of all leaf priorities.
func (t *sumTree) total() float64 { return t.node(0) }

// set assigns priority p to leaf i and updates ancestor sums.
func (t *sumTree) set(i int, p float64) {
	if p < 0 {
		panic("replay: negative priority")
	}
	idx := i + t.capacity - 1
	leaf := t.ref(idx)
	delta := p - *leaf
	*leaf = p
	for idx > 0 {
		idx = (idx - 1) / 2
		*t.ref(idx) += delta
	}
}

// get returns the priority of leaf i.
func (t *sumTree) get(i int) float64 { return t.node(i + t.capacity - 1) }

// find returns the leaf index whose cumulative priority interval contains
// mass, where 0 ≤ mass < total().
func (t *sumTree) find(mass float64) int {
	idx := 0
	for idx < t.capacity-1 {
		left := 2*idx + 1
		if l := t.node(left); mass < l {
			idx = left
		} else {
			mass -= l
			idx = left + 1
		}
	}
	return idx - (t.capacity - 1)
}
