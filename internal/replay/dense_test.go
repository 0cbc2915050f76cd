package replay

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// denseSumTree is the sum-tree as it was before paging: one float64 per
// node in a flat array. It survives here as the oracle the paged tree
// must match bit for bit.
type denseSumTree struct {
	capacity int
	nodes    []float64
}

func newDenseSumTree(capacity int) *denseSumTree {
	return &denseSumTree{capacity: capacity, nodes: make([]float64, 2*capacity-1)}
}

func (t *denseSumTree) total() float64 { return t.nodes[0] }

func (t *denseSumTree) set(i int, p float64) {
	idx := i + t.capacity - 1
	delta := p - t.nodes[idx]
	t.nodes[idx] = p
	for idx > 0 {
		idx = (idx - 1) / 2
		t.nodes[idx] += delta
	}
}

func (t *denseSumTree) get(i int) float64 { return t.nodes[i+t.capacity-1] }

func (t *denseSumTree) find(mass float64) int {
	idx := 0
	for idx < t.capacity-1 {
		left := 2*idx + 1
		if mass < t.nodes[left] {
			idx = left
		} else {
			mass -= t.nodes[left]
			idx = left + 1
		}
	}
	return idx - (t.capacity - 1)
}

// denseEncodePrioritized is the pre-paging Prioritized.EncodeState: two
// scans over every node of the dense tree.
func denseEncodePrioritized(e *checkpoint.Encoder, p *Prioritized, nodes []float64) {
	e.Int(p.capacity)
	e.Int(len(p.data))
	for _, t := range p.data {
		encodeTransition(e, t)
	}
	e.Int(p.next)
	e.F64(p.maxPrio)
	e.Int(p.samples)
	nonzero := 0
	for _, v := range nodes {
		if v != 0 {
			nonzero++
		}
	}
	e.Int(nonzero)
	for i, v := range nodes {
		if v != 0 {
			e.Int(i)
			e.F64(v)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameTree compares the trees on every node a set of one of the
// leaves has written — the leaf and its ancestors; every other node of
// the dense tree is still zero — and requires the codec's ascending
// non-zero walk to yield exactly the non-zero ones among them, so a
// stray value anywhere in a materialised page fails it.
func requireSameTree(t *testing.T, paged *sumTree, dense *denseSumTree, leaves []int) {
	t.Helper()
	seen := map[int]bool{}
	var written []int
	for _, leaf := range leaves {
		for idx := leaf + dense.capacity - 1; !seen[idx]; idx = (idx - 1) / 2 {
			seen[idx] = true
			written = append(written, idx)
		}
	}
	sort.Ints(written)
	var nonzero []int
	for _, idx := range written {
		if got, want := paged.node(idx), dense.nodes[idx]; !sameBits(got, want) {
			t.Fatalf("node %d: %v, dense %v", idx, got, want)
		}
		if dense.nodes[idx] != 0 {
			nonzero = append(nonzero, idx)
		}
	}
	i := 0
	paged.forEachNonzero(func(idx int, v float64) {
		if i >= len(nonzero) || idx != nonzero[i] || !sameBits(v, dense.nodes[idx]) {
			t.Fatalf("non-zero walk yields node %d = %v at position %d, dense disagrees", idx, v, i)
		}
		i++
	})
	if i != len(nonzero) {
		t.Fatalf("non-zero walk yields %d nodes, dense has %d", i, len(nonzero))
	}
}

var diffCapacities = []int{1, 2, 3, 1000, 1_000_000}

// diffPriorities are the values a live tree can be handed: DecodeState
// keeps NaN and +Inf because faulted observations produce them.
var diffPriorities = []float64{0, 1, 0.001, 1e-300, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(), math.Copysign(0, -1)}

// runTreeOps interprets ops as a set/get/find/total program and runs
// it on both trees, requiring bit-equal answers after every step.
// Each op is 10 bytes: opcode, selector, 8 bytes of operand.
func runTreeOps(t *testing.T, capacity int, ops []byte) (paged *sumTree, dense *denseSumTree, leaves []int) {
	t.Helper()
	paged, dense = newSumTree(capacity), newDenseSumTree(capacity)
	for ; len(ops) >= 10; ops = ops[10:] {
		bits := binary.LittleEndian.Uint64(ops[2:])
		leaf := int(bits % uint64(capacity))
		val := math.Float64frombits(bits)
		if sel := int(ops[1]); sel < 2*len(diffPriorities) {
			val = diffPriorities[sel%len(diffPriorities)]
		}
		switch ops[0] % 4 {
		case 0, 1:
			if val < 0 {
				val = -val
			}
			paged.set(leaf, val)
			dense.set(leaf, val)
			leaves = append(leaves, leaf)
		case 2:
			if got, want := paged.get(leaf), dense.get(leaf); !sameBits(got, want) {
				t.Fatalf("get(%d) = %v, dense %v", leaf, got, want)
			}
		case 3:
			if got, want := paged.find(val), dense.find(val); got != want {
				t.Fatalf("find(%v) = %d, dense %d", val, got, want)
			}
		}
		if !sameBits(paged.total(), dense.total()) {
			t.Fatalf("total %v, dense %v", paged.total(), dense.total())
		}
	}
	return paged, dense, leaves
}

func TestSumTreeMatchesDense(t *testing.T) {
	for _, capacity := range diffCapacities {
		rng := rand.New(rand.NewSource(int64(capacity)))
		ops := make([]byte, 10*4000)
		rng.Read(ops)
		paged, dense, leaves := runTreeOps(t, capacity, ops)
		requireSameTree(t, paged, dense, leaves)
		for i, want := range dense.nodes { // and the untouched rest
			if got := paged.node(i); !sameBits(got, want) {
				t.Fatalf("capacity %d node %d: %v, dense %v", capacity, i, got, want)
			}
		}
		clear(paged.pages)
		requireSameTree(t, paged, newDenseSumTree(capacity), leaves)
	}
}

func FuzzSumTreeMatchesDense(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), bytes.Repeat([]byte{0, 7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 200, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 4))
	f.Add(uint8(4), bytes.Repeat([]byte{1, 6, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 3))
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		paged, dense, leaves := runTreeOps(t, diffCapacities[int(capSel)%len(diffCapacities)], ops)
		requireSameTree(t, paged, dense, leaves)
	})
}

// The same history encoded by the paged codec and by the old dense one
// must give the same bytes: that is what keeps every checkpoint, and so
// every resumed trajectory, what it was.
func TestPrioritizedEncodeMatchesDenseEncoder(t *testing.T) {
	for _, c := range []struct{ capacity, steps int }{
		{64, 150}, // the ring has wrapped
		{1000, 700},
		{1_000_000, 1350}, // the fleet benchmark's fill
	} {
		rng := rand.New(rand.NewSource(int64(c.capacity)))
		p := NewPrioritized(c.capacity, 0.6, 0.4, 1000)
		dense := newDenseSumTree(c.capacity)
		for i := 0; i < c.steps; i++ {
			dense.set(p.next, math.Pow(p.maxPrio, p.Alpha))
			p.Add(randomTransition(rng, 6, 4, 2))
			if p.Len() >= 8 && i%3 == 0 {
				b := p.Sample(8, rng)
				td := make([]float64, len(b.Indices))
				for j := range td {
					td[j] = rng.NormFloat64()
					if i%50 == 0 && j == 0 {
						td[j] = math.Inf(1) // a faulted observation's TD error
					}
					dense.set(b.Indices[j], math.Pow(math.Abs(td[j])+p.Epsilon, p.Alpha))
				}
				p.UpdatePriorities(b.Indices, td)
			}
		}
		got, want := checkpoint.NewEncoder(), checkpoint.NewEncoder()
		p.EncodeState(got)
		denseEncodePrioritized(want, p, dense.nodes)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("capacity %d: paged codec wrote %d bytes that differ from the dense codec's %d",
				c.capacity, len(got.Bytes()), len(want.Bytes()))
		}
		restored := NewPrioritized(c.capacity, 0.6, 0.4, 1000)
		if err := restored.DecodeState(checkpoint.NewDecoder(got.Bytes())); err != nil {
			t.Fatalf("capacity %d: %v", c.capacity, err)
		}
		slots := make([]int, restored.Len())
		for i := range slots {
			slots[i] = i
		}
		requireSameTree(t, restored.tree, dense, slots)
	}
}
