package replay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tr(id float64) Transition {
	return Transition{State: []float64{id}, Actions: []int{0}, Rewards: []float64{id}}
}

func TestSumTreeSetGetTotal(t *testing.T) {
	st := newSumTree(4)
	st.set(0, 1)
	st.set(1, 2)
	st.set(2, 3)
	st.set(3, 4)
	if st.total() != 10 {
		t.Fatalf("total = %v", st.total())
	}
	st.set(2, 0)
	if st.total() != 7 || st.get(2) != 0 {
		t.Fatalf("after update total = %v", st.total())
	}
}

func TestSumTreeFindBoundaries(t *testing.T) {
	st := newSumTree(4)
	st.set(0, 1)
	st.set(1, 2)
	st.set(2, 3)
	st.set(3, 4)
	cases := []struct {
		mass float64
		want int
	}{
		{0, 0}, {0.99, 0}, {1, 1}, {2.99, 1}, {3, 2}, {5.99, 2}, {6, 3}, {9.99, 3},
	}
	for _, c := range cases {
		if got := st.find(c.mass); got != c.want {
			t.Fatalf("find(%v) = %d, want %d", c.mass, got, c.want)
		}
	}
}

func TestSumTreeNonPowerOfTwoCapacity(t *testing.T) {
	st := newSumTree(5)
	for i := 0; i < 5; i++ {
		st.set(i, float64(i+1))
	}
	if st.total() != 15 {
		t.Fatalf("total = %v", st.total())
	}
	// Every unit of mass must land on a valid leaf.
	for m := 0.0; m < 15; m += 0.5 {
		idx := st.find(m)
		if idx < 0 || idx >= 5 {
			t.Fatalf("find(%v) = %d out of range", m, idx)
		}
	}
}

// Property: for a freshly built tree, the leaf found for mass m is the
// unique i with prefix(i) ≤ m < prefix(i+1).
func TestSumTreeFindMatchesPrefixSums(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		st := newSumTree(n)
		prios := make([]float64, n)
		for i := range prios {
			prios[i] = rng.Float64() * 10
			st.set(i, prios[i])
		}
		// For non-power-of-two capacities the heap layout visits leaves
		// in in-order traversal order, not array order; sampling is
		// proportional to priority either way. Check containment against
		// prefix sums in traversal order.
		order := inOrderLeaves(st)
		const tol = 1e-9
		for trial := 0; trial < 20; trial++ {
			m := rng.Float64() * st.total()
			idx := st.find(m)
			if idx < 0 || idx >= n {
				return false
			}
			var prefix float64
			for _, leaf := range order {
				if leaf == idx {
					break
				}
				prefix += prios[leaf]
			}
			if m < prefix-tol || m >= prefix+prios[idx]+tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// inOrderLeaves returns leaf indices in the order the descent in find
// visits them (left subtree before right subtree).
func inOrderLeaves(st *sumTree) []int {
	var out []int
	var walk func(node int)
	walk = func(node int) {
		if node >= st.capacity-1 {
			out = append(out, node-(st.capacity-1))
			return
		}
		walk(2*node + 1)
		walk(2*node + 2)
	}
	walk(0)
	return out
}

func TestUniformRingEviction(t *testing.T) {
	u := NewUniform(3)
	for i := 0; i < 5; i++ {
		u.Add(tr(float64(i)))
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
	// Remaining elements must be {2,3,4}.
	seen := map[float64]bool{}
	for _, d := range u.data {
		seen[d.State[0]] = true
	}
	for _, want := range []float64{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("element %v evicted wrongly, have %v", want, seen)
		}
	}
}

func TestUniformSampleWeightsAreOne(t *testing.T) {
	u := NewUniform(10)
	u.Add(tr(1))
	b := u.Sample(4, rand.New(rand.NewSource(1)))
	for _, w := range b.Weights {
		if w != 1 {
			t.Fatalf("weights = %v", b.Weights)
		}
	}
}

func TestUniformEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniform(4).Sample(1, rand.New(rand.NewSource(1)))
}

func TestPrioritizedSamplingBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPrioritized(8, 1.0, 1.0, 0) // α=1 so probabilities ∝ priority
	for i := 0; i < 8; i++ {
		p.Add(tr(float64(i)))
	}
	// Give transition 7 priority 50, everyone else 1.
	idx := make([]int, 8)
	prio := make([]float64, 8)
	for i := range idx {
		idx[i] = i
		prio[i] = 1
	}
	prio[7] = 50
	p.UpdatePriorities(idx, prio)

	counts := map[float64]int{}
	const draws = 2000
	for i := 0; i < draws; i++ {
		b := p.Sample(1, rng)
		counts[b.Transitions[0].State[0]]++
	}
	frac := float64(counts[7]) / draws
	// Expected ≈ (50+ε)/(57+8ε) ≈ 0.877.
	if frac < 0.75 {
		t.Fatalf("high-priority transition sampled %.2f of the time, want ≫ 1/8", frac)
	}
}

func TestPrioritizedImportanceWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPrioritized(4, 0.6, 0.4, 100)
	for i := 0; i < 4; i++ {
		p.Add(tr(float64(i)))
	}
	p.UpdatePriorities([]int{0, 1, 2, 3}, []float64{10, 1, 1, 1})
	b := p.Sample(32, rng)
	// Weights are normalised to max 1, and frequently sampled (high
	// priority) transitions must have smaller weights.
	maxW := 0.0
	var wHigh, wLow float64
	for i, trn := range b.Transitions {
		if b.Weights[i] > maxW {
			maxW = b.Weights[i]
		}
		if trn.State[0] == 0 {
			wHigh = b.Weights[i]
		} else {
			wLow = b.Weights[i]
		}
	}
	if math.Abs(maxW-1) > 1e-12 {
		t.Fatalf("max weight = %v, want 1", maxW)
	}
	if wHigh != 0 && wLow != 0 && wHigh >= wLow {
		t.Fatalf("IS weight of high-priority sample (%v) should be < low-priority (%v)", wHigh, wLow)
	}
}

func TestPrioritizedBetaAnnealing(t *testing.T) {
	p := NewPrioritized(4, 0.6, 0.4, 10)
	if b := p.beta(); math.Abs(b-0.4) > 1e-12 {
		t.Fatalf("initial beta = %v", b)
	}
	p.Add(tr(0))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		p.Sample(1, rng)
	}
	if b := p.beta(); b != 1 {
		t.Fatalf("annealed beta = %v, want 1", b)
	}
}

func TestPrioritizedNewTransitionsGetMaxPriority(t *testing.T) {
	p := NewPrioritized(8, 0.6, 0.4, 0)
	p.Add(tr(0))
	p.UpdatePriorities([]int{0}, []float64{100})
	p.Add(tr(1))
	// Leaf 1 must carry the max priority (100+ε)^α, same as leaf 0.
	if math.Abs(p.tree.get(1)-p.tree.get(0)) > 1e-9 {
		t.Fatalf("new transition priority %v != max priority %v", p.tree.get(1), p.tree.get(0))
	}
}

func TestPrioritizedRingWraparound(t *testing.T) {
	p := NewPrioritized(4, 0.6, 0.4, 0)
	for i := 0; i < 9; i++ {
		p.Add(tr(float64(i)))
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	rng := rand.New(rand.NewSource(5))
	b := p.Sample(16, rng)
	for _, trn := range b.Transitions {
		if trn.State[0] < 5 {
			t.Fatalf("sampled evicted transition %v", trn.State[0])
		}
	}
}

func TestNegativePriorityPanics(t *testing.T) {
	st := newSumTree(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.set(0, -1)
}

// pagesInUse counts the sum-tree pages that exist.
func (t *sumTree) pagesInUse() int {
	n := 0
	for _, pg := range t.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// The tree's memory follows the leaves in use: a buffer of the paper's
// capacity holds no page before the first Add, and each further 512
// transitions touch one more leaf page, half a page of parents, a
// quarter of grandparents — two pages in all, on top of the one page
// per level the first leaf's ancestors take.
func TestPrioritizedStorageTracksFill(t *testing.T) {
	const capacity = 1_000_000
	p := NewPrioritized(capacity, 0.6, 0.4, 0)
	if got := p.tree.pagesInUse(); got != 0 || cap(p.data) != 0 {
		t.Fatalf("empty buffer holds %d pages and %d transition slots", got, cap(p.data))
	}
	if table := len(p.tree.pages) * 8; table > 32<<10 {
		t.Fatalf("page table takes %d bytes", table)
	}
	const levels = 21 // ⌈log₂(2·10⁶)⌉
	for fill := 1; fill <= 64*pageSize; fill++ {
		p.Add(tr(float64(fill)))
		if fill%pageSize != 0 {
			continue
		}
		if got, limit := p.tree.pagesInUse(), 2*fill/pageSize+levels; got > limit {
			t.Fatalf("%d transitions hold %d pages, want ≤ %d", fill, got, limit)
		}
		if cap(p.data) > 2*fill {
			t.Fatalf("%d transitions hold %d slots", fill, cap(p.data))
		}
	}
}
