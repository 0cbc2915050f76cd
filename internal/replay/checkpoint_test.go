package replay

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

func randomTransition(rng *rand.Rand, stateDim, branches, agents int) Transition {
	t := Transition{
		State:     make([]float64, stateDim),
		NextState: make([]float64, stateDim),
		Actions:   make([]int, branches),
		Rewards:   make([]float64, agents),
		Done:      rng.Float64() < 0.1,
	}
	for i := range t.State {
		t.State[i] = rng.NormFloat64()
		t.NextState[i] = rng.NormFloat64()
	}
	for i := range t.Actions {
		t.Actions[i] = rng.Intn(7)
	}
	for i := range t.Rewards {
		t.Rewards[i] = rng.NormFloat64()
	}
	return t
}

func sameTransition(a, b Transition) bool {
	if a.Done != b.Done || len(a.State) != len(b.State) || len(a.Actions) != len(b.Actions) ||
		len(a.Rewards) != len(b.Rewards) || len(a.NextState) != len(b.NextState) {
		return false
	}
	for i := range a.State {
		if a.State[i] != b.State[i] || a.NextState[i] != b.NextState[i] {
			return false
		}
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return false
		}
	}
	for i := range a.Rewards {
		if a.Rewards[i] != b.Rewards[i] {
			return false
		}
	}
	return true
}

// exercise fills a prioritised buffer with adds, samples and priority
// updates so the sum-tree internal nodes accumulate genuine
// floating-point update history (the thing a rebuild-from-leaves
// restore would get wrong).
func exercisePrioritized(p *Prioritized, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		p.Add(randomTransition(rng, 6, 4, 2))
		if p.Len() >= 8 && i%3 == 0 {
			b := p.Sample(8, rng)
			td := make([]float64, len(b.Indices))
			for j := range td {
				td[j] = rng.NormFloat64()
			}
			p.UpdatePriorities(b.Indices, td)
		}
	}
}

func TestPrioritizedRoundTrip(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(11))
	orig := NewPrioritized(capacity, 0.6, 0.4, 1000)
	exercisePrioritized(orig, rng, 150) // > capacity: the ring has wrapped

	e := checkpoint.NewEncoder()
	orig.EncodeState(e)

	restored := NewPrioritized(capacity, 0.6, 0.4, 1000)
	d := checkpoint.NewDecoder(e.Bytes())
	if err := restored.DecodeState(d); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after decode", d.Remaining())
	}

	// Exact sum-tree state: total, every node, every per-slot priority.
	if got, want := restored.tree.total(), orig.tree.total(); got != want {
		t.Fatalf("tree total %v != %v", got, want)
	}
	for i := 0; i < orig.tree.numNodes(); i++ {
		if restored.tree.node(i) != orig.tree.node(i) {
			t.Fatalf("tree node %d: %v != %v", i, restored.tree.node(i), orig.tree.node(i))
		}
	}
	for i := 0; i < orig.Len(); i++ {
		if restored.tree.get(i) != orig.tree.get(i) {
			t.Fatalf("slot %d priority %v != %v", i, restored.tree.get(i), orig.tree.get(i))
		}
	}
	// Scalar state: β-anneal position, max-priority, cursors.
	if restored.samples != orig.samples || restored.beta() != orig.beta() {
		t.Fatalf("β-anneal position: samples %d/β %v, want %d/%v",
			restored.samples, restored.beta(), orig.samples, orig.beta())
	}
	if restored.maxPrio != orig.maxPrio || restored.next != orig.next || restored.Len() != orig.Len() {
		t.Fatalf("cursors: maxPrio %v next %d size %d, want %v %d %d",
			restored.maxPrio, restored.next, restored.Len(), orig.maxPrio, orig.next, orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if !sameTransition(restored.data[i], orig.data[i]) {
			t.Fatalf("transition %d differs after round-trip", i)
		}
	}

	// Subsequent draws from identical RNG streams must match exactly —
	// indices, weights and transition identities — through further
	// mutation (adds and priority updates) on both sides.
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	mutA := rand.New(rand.NewSource(7))
	mutB := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		ba := orig.Sample(16, rngA)
		bb := restored.Sample(16, rngB)
		for i := range ba.Indices {
			if ba.Indices[i] != bb.Indices[i] {
				t.Fatalf("round %d draw %d: index %d != %d", round, i, ba.Indices[i], bb.Indices[i])
			}
			if ba.Weights[i] != bb.Weights[i] {
				t.Fatalf("round %d draw %d: weight %v != %v", round, i, ba.Weights[i], bb.Weights[i])
			}
			if !sameTransition(ba.Transitions[i], bb.Transitions[i]) {
				t.Fatalf("round %d draw %d: transitions differ", round, i)
			}
		}
		td := make([]float64, len(ba.Indices))
		for j := range td {
			td[j] = mutA.NormFloat64()
		}
		orig.UpdatePriorities(ba.Indices, td)
		tdB := make([]float64, len(bb.Indices))
		for j := range tdB {
			tdB[j] = mutB.NormFloat64()
		}
		restored.UpdatePriorities(bb.Indices, tdB)
		orig.Add(randomTransition(mutA, 6, 4, 2))
		restored.Add(randomTransition(mutB, 6, 4, 2))
	}
}

func TestUniformRoundTrip(t *testing.T) {
	const capacity = 32
	rng := rand.New(rand.NewSource(5))
	orig := NewUniform(capacity)
	for i := 0; i < 50; i++ { // wraps the ring
		orig.Add(randomTransition(rng, 4, 3, 2))
	}
	e := checkpoint.NewEncoder()
	orig.EncodeState(e)

	restored := NewUniform(capacity)
	if err := restored.DecodeState(checkpoint.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.next != orig.next || restored.full != orig.full || restored.Len() != orig.Len() {
		t.Fatalf("cursors differ: next %d full %v len %d, want %d %v %d",
			restored.next, restored.full, restored.Len(), orig.next, orig.full, orig.Len())
	}
	rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	ba, bb := orig.Sample(16, rngA), restored.Sample(16, rngB)
	for i := range ba.Indices {
		if ba.Indices[i] != bb.Indices[i] || !sameTransition(ba.Transitions[i], bb.Transitions[i]) {
			t.Fatalf("draw %d differs after round-trip", i)
		}
	}
}

func TestBufferKindMismatch(t *testing.T) {
	e := checkpoint.NewEncoder()
	EncodeBufferKind(e, NewUniform(4))
	if err := CheckBufferKind(checkpoint.NewDecoder(e.Bytes()), NewPrioritized(4, 0.6, 0.4, 10)); err == nil {
		t.Fatal("uniform checkpoint accepted by prioritized buffer")
	}
}

func TestDecodeCapacityMismatch(t *testing.T) {
	orig := NewPrioritized(16, 0.6, 0.4, 10)
	orig.Add(randomTransition(rand.New(rand.NewSource(1)), 4, 2, 1))
	e := checkpoint.NewEncoder()
	orig.EncodeState(e)
	other := NewPrioritized(32, 0.6, 0.4, 10)
	if err := other.DecodeState(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

// perFields is a Prioritized payload field by field, so a test can
// write states no live buffer produces.
type perFields struct {
	capacity, count int
	transitions     int // how many are actually written
	next            int
	maxPrio         float64
	samples         int
	nonzero         int
	nodes           []perNode
	cut             int // bytes dropped from the end
}

type perNode struct {
	idx int
	val float64
}

func (f perFields) encode() []byte {
	e := checkpoint.NewEncoder()
	e.Int(f.capacity)
	e.Int(f.count)
	for i := 0; i < f.transitions; i++ {
		encodeTransition(e, tr(float64(i)))
	}
	e.Int(f.next)
	e.F64(f.maxPrio)
	e.Int(f.samples)
	e.Int(f.nonzero)
	for _, n := range f.nodes {
		e.Int(n.idx)
		e.F64(n.val)
	}
	return e.Bytes()[:len(e.Bytes())-f.cut]
}

// Every validation branch of Prioritized.DecodeState rejects its input,
// and the buffer it leaves behind — garbage the caller is told to
// rebuild — still agrees with itself: Len() counts transitions that
// exist, within capacity, so Add and Sample neither panic nor read past
// the ring.
func TestPrioritizedDecodeErrorPaths(t *testing.T) {
	const capacity = 8
	valid := func() perFields {
		return perFields{capacity: capacity, count: 3, transitions: 3, next: 3, maxPrio: 1, nonzero: 1,
			nodes: []perNode{{capacity - 1, 1}}}
	}
	if err := NewPrioritized(capacity, 0.6, 0.4, 10).DecodeState(checkpoint.NewDecoder(valid().encode())); err != nil {
		t.Fatalf("the valid payload the cases below are cut from: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*perFields)
	}{
		{"truncated header", func(f *perFields) { *f = perFields{capacity: capacity, cut: 40} }},
		{"capacity mismatch", func(f *perFields) { f.capacity = 16 }},
		{"negative count", func(f *perFields) { f.count = -1 }},
		{"count above capacity", func(f *perFields) { f.count = capacity + 1 }},
		{"count beyond payload", func(f *perFields) { f.capacity, f.count = capacity, capacity; f.transitions = 0; f.nodes = nil }},
		{"truncated transitions", func(f *perFields) { f.transitions = 2 }},
		{"truncated scalars", func(f *perFields) { f.nodes = nil; f.cut = 12 }},
		{"negative cursor", func(f *perFields) { f.next = -1 }},
		{"cursor at capacity", func(f *perFields) { f.next = capacity }},
		{"cursor off the count before the ring wraps", func(f *perFields) { f.next = 1 }},
		{"max priority below one", func(f *perFields) { f.maxPrio = 0.5 }},
		{"max priority NaN", func(f *perFields) { f.maxPrio = math.NaN() }},
		{"negative sample count", func(f *perFields) { f.samples = -1 }},
		{"negative node count", func(f *perFields) { f.nonzero = -1 }},
		{"node count above the tree", func(f *perFields) { f.nonzero = 2 * capacity }},
		{"node count beyond payload", func(f *perFields) { f.nonzero = 2 }},
		{"node index negative", func(f *perFields) { f.nodes[0].idx = -1 }},
		{"node index past the tree", func(f *perFields) { f.nodes[0].idx = 2*capacity - 1 }},
		{"negative node value", func(f *perFields) { f.nodes[0].val = -1 }},
	}
	for _, c := range cases {
		f := valid()
		c.mutate(&f)
		p := NewPrioritized(capacity, 0.6, 0.4, 10)
		for i := 0; i < 5; i++ {
			p.Add(tr(float64(100 + i)))
		}
		if err := p.DecodeState(checkpoint.NewDecoder(f.encode())); err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if p.Len() != len(p.data) || p.Len() > capacity {
			t.Errorf("%s: Len() = %d with %d transitions stored, capacity %d", c.name, p.Len(), len(p.data), capacity)
		}
		p.Add(tr(1))
		b := p.Sample(4, rand.New(rand.NewSource(1)))
		for _, idx := range b.Indices {
			if idx < 0 || idx >= p.Len() {
				t.Errorf("%s: sampled slot %d of %d", c.name, idx, p.Len())
			}
		}
	}
}

func TestUniformDecodeErrorPaths(t *testing.T) {
	const capacity = 8
	encode := func(capacityField, count, transitions, next, cut int) []byte {
		e := checkpoint.NewEncoder()
		e.Int(capacityField)
		e.Int(count)
		for i := 0; i < transitions; i++ {
			encodeTransition(e, tr(float64(i)))
		}
		e.Int(next)
		e.Bool(false)
		return e.Bytes()[:len(e.Bytes())-cut]
	}
	if err := NewUniform(capacity).DecodeState(checkpoint.NewDecoder(encode(capacity, 3, 3, 0, 0))); err != nil {
		t.Fatalf("the valid payload the cases below are cut from: %v", err)
	}
	for name, data := range map[string][]byte{
		"truncated header":      encode(capacity, 0, 0, 0, 20),
		"capacity mismatch":     encode(16, 3, 3, 0, 0),
		"negative count":        encode(capacity, -1, 0, 0, 0),
		"count above capacity":  encode(capacity, capacity+1, 3, 0, 0),
		"count beyond payload":  encode(capacity, capacity, 0, 0, 0),
		"truncated transitions": encode(capacity, 3, 2, 0, 0),
		"negative cursor":       encode(capacity, 3, 3, -1, 0),
		"cursor at capacity":    encode(capacity, 3, 3, capacity, 0),
		"truncated cursor":      encode(capacity, 3, 3, 0, 5),
	} {
		u := NewUniform(capacity)
		for i := 0; i < 5; i++ {
			u.Add(tr(float64(100 + i)))
		}
		if err := u.DecodeState(checkpoint.NewDecoder(data)); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if u.Len() > capacity {
			t.Errorf("%s: Len() = %d, capacity %d", name, u.Len(), capacity)
		}
		u.Add(tr(1))
		for _, idx := range u.Sample(4, rand.New(rand.NewSource(1))).Indices {
			if idx < 0 || idx >= u.Len() {
				t.Errorf("%s: sampled slot %d of %d", name, idx, u.Len())
			}
		}
	}
}
