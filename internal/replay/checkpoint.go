package replay

import (
	"fmt"
	"slices"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// Kind tags distinguish buffer implementations inside an agent section
// so a checkpoint written with PER cannot silently restore into a
// uniform buffer (or vice versa).
const (
	kindUniform     = 1
	kindPrioritized = 2
)

// EncodeBufferKind writes the implementation tag for b.
func EncodeBufferKind(e *checkpoint.Encoder, b Buffer) {
	switch b.(type) {
	case *Uniform:
		e.Int(kindUniform)
	case *Prioritized:
		e.Int(kindPrioritized)
	default:
		panic(fmt.Sprintf("replay: unknown buffer type %T", b))
	}
}

// CheckBufferKind reads the tag and verifies it matches b.
func CheckBufferKind(d *checkpoint.Decoder, b Buffer) error {
	kind := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	var want int
	switch b.(type) {
	case *Uniform:
		want = kindUniform
	case *Prioritized:
		want = kindPrioritized
	default:
		return fmt.Errorf("replay: unknown buffer type %T", b)
	}
	if kind != want {
		return fmt.Errorf("replay: checkpoint buffer kind %d does not match live buffer %T", kind, b)
	}
	return nil
}

func encodeTransition(e *checkpoint.Encoder, t Transition) {
	e.F64s(t.State)
	e.Ints(t.Actions)
	e.F64s(t.Rewards)
	e.F64s(t.NextState)
	e.Bool(t.Done)
}

// slabs are the two backing arrays a restored ring's transitions are
// sub-sliced from: one allocation per element type instead of four per
// transition.
type slabs struct {
	floats []float64
	ints   []int
}

// tail returns what a decode appended to slab after start, capped at its
// own length so an append through it can never reach its neighbour (nil
// when nothing was appended: an empty slice decodes as nil).
func tail[T any](slab []T, start int) []T {
	if len(slab) == start {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

func (s *slabs) f64s(d *checkpoint.Decoder) []float64 {
	start := len(s.floats)
	s.floats = d.F64sAppend(s.floats)
	return tail(s.floats, start)
}

func (s *slabs) intSlice(d *checkpoint.Decoder) []int {
	start := len(s.ints)
	s.ints = d.IntsAppend(s.ints)
	return tail(s.ints, start)
}

func (s *slabs) transition(d *checkpoint.Decoder) Transition {
	return Transition{
		State:     s.f64s(d),
		Actions:   s.intSlice(d),
		Rewards:   s.f64s(d),
		NextState: s.f64s(d),
		Done:      d.Bool(),
	}
}

// decodeTransitions replaces the contents of ring with n decoded
// transitions, releasing what it held. The caller has bounded n by the
// payload. Every transition of a live ring has the first one's shape, so
// the first is decoded on its own and sizes the slabs for the rest
// (never past what the payload can hold); a ring that breaks the rule
// still decodes, the slab it outgrows just stops being shared.
func decodeTransitions(d *checkpoint.Decoder, ring []Transition, n int) []Transition {
	clear(ring)
	ring = slices.Grow(ring[:0], n)
	var s slabs
	for i := 0; i < n; i++ {
		if i == 1 {
			t, room := ring[0], d.Remaining()/8
			s.floats = make([]float64, 0, min((n-1)*(len(t.State)+len(t.Rewards)+len(t.NextState)), room))
			s.ints = make([]int, 0, min((n-1)*len(t.Actions), room))
		}
		ring = append(ring, s.transition(d))
	}
	return ring
}

// transitionMinBytes is the smallest encoding of one transition (four
// empty slices plus the Done byte); it bounds count fields on decode.
const transitionMinBytes = 4*4 + 1

// EncodeState writes the ring contents and cursor. Capacity goes in as
// a fingerprint: restoring into a buffer of different capacity would
// scramble ring arithmetic.
func (u *Uniform) EncodeState(e *checkpoint.Encoder) {
	e.Int(u.capacity)
	e.Int(len(u.data))
	for _, t := range u.data {
		encodeTransition(e, t)
	}
	e.Int(u.next)
	e.Bool(u.full)
}

// DecodeState restores state written by EncodeState into a buffer
// constructed with the same capacity, allocating for the stored
// transitions only.
func (u *Uniform) DecodeState(d *checkpoint.Decoder) error {
	capacity := d.Int()
	n := d.Count(transitionMinBytes)
	if err := d.Err(); err != nil {
		return err
	}
	if capacity != u.capacity {
		return fmt.Errorf("replay: checkpoint capacity %d, live uniform buffer %d", capacity, u.capacity)
	}
	if n > capacity {
		return fmt.Errorf("replay: stored count %d out of range", n)
	}
	u.data = decodeTransitions(d, u.data, n)
	u.next = d.Int()
	u.full = d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if u.next < 0 || u.next >= capacity {
		return fmt.Errorf("replay: ring cursor %d out of range [0,%d)", u.next, capacity)
	}
	return nil
}

// EncodeState writes the stored transitions, ring cursors, max-priority
// and β-anneal position, plus the sum-tree's exact node values as a
// sparse (index, value) list. The internal node sums are NOT rebuilt
// from the leaves on restore: they carry the floating-point history of
// every delta propagation, and Sample's prefix-sum descent reads them
// directly, so bit-identical resumed draws need the exact bits.
func (p *Prioritized) EncodeState(e *checkpoint.Encoder) {
	e.Int(p.capacity)
	e.Int(len(p.data))
	for _, t := range p.data {
		encodeTransition(e, t)
	}
	e.Int(p.next)
	e.F64(p.maxPrio)
	e.Int(p.samples)

	nonzero := 0
	p.tree.forEachNonzero(func(int, float64) { nonzero++ })
	e.Int(nonzero)
	p.tree.forEachNonzero(func(idx int, v float64) {
		e.Int(idx)
		e.F64(v)
	})
}

// DecodeState restores state written by EncodeState into a buffer
// constructed with the same capacity, allocating for the stored
// transitions and the sum-tree pages their nodes touch only.
func (p *Prioritized) DecodeState(d *checkpoint.Decoder) error {
	capacity := d.Int()
	size := d.Count(transitionMinBytes)
	if err := d.Err(); err != nil {
		return err
	}
	if capacity != p.capacity {
		return fmt.Errorf("replay: checkpoint capacity %d, live prioritized buffer %d", capacity, p.capacity)
	}
	if size > capacity {
		return fmt.Errorf("replay: stored count %d out of range", size)
	}
	p.data = decodeTransitions(d, p.data, size)
	p.next = d.Int()
	p.maxPrio = d.F64()
	p.samples = d.Int()
	nonzero := d.Count(8 + 8) // index and value
	if err := d.Err(); err != nil {
		return err
	}
	if p.next < 0 || p.next >= capacity {
		return fmt.Errorf("replay: ring cursor %d out of range [0,%d)", p.next, capacity)
	}
	// Until the ring wraps the cursor is the count; Add relies on it.
	if size < capacity && p.next != size {
		return fmt.Errorf("replay: ring cursor %d with %d of %d slots filled cannot occur in a live buffer", p.next, size, capacity)
	}
	// maxPrio starts at 1 and only ever grows through ordered
	// comparisons, so anything below 1 (including NaN) cannot be live
	// state. +Inf can: an unguarded manager fed faulted observations
	// produces infinite TD errors, and a faithful restore keeps them.
	if !(p.maxPrio >= 1) {
		return fmt.Errorf("replay: max priority %v cannot occur in a live buffer", p.maxPrio)
	}
	if p.samples < 0 {
		return fmt.Errorf("replay: negative sample count %d", p.samples)
	}
	numNodes := p.tree.numNodes()
	if nonzero > numNodes {
		return fmt.Errorf("replay: sum-tree node count %d out of range", nonzero)
	}
	clear(p.tree.pages) // every node reads as zero again
	for i := 0; i < nonzero; i++ {
		idx := d.Int()
		val := d.F64()
		if err := d.Err(); err != nil {
			return err
		}
		if idx < 0 || idx >= numNodes {
			return fmt.Errorf("replay: sum-tree node index %d out of range [0,%d)", idx, numNodes)
		}
		// Negative priorities cannot arise (|td|+ε raised to α ≥ 0), but
		// NaN and +Inf can when the learner was fed faulted observations;
		// restoring them exactly is required for bit-identical resume.
		if val < 0 {
			return fmt.Errorf("replay: sum-tree node %d value %v must be non-negative", idx, val)
		}
		*p.tree.ref(idx) = val
	}
	return d.Err()
}
