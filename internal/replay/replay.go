package replay

import (
	"math"
	"math/rand"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// Transition is one (s, a, r, s′) interaction of the multi-agent BDQ with
// the environment. Actions holds one chosen action index per branch
// (flattened across agents); Rewards holds one reward per agent.
type Transition struct {
	State     []float64
	Actions   []int
	Rewards   []float64
	NextState []float64
	Done      bool
}

// Batch is a sampled minibatch together with the bookkeeping needed by
// prioritised replay: the buffer indices of each transition (for priority
// updates) and the normalised importance-sampling weights.
type Batch struct {
	Transitions []Transition
	Indices     []int
	Weights     []float64
}

// grow resizes b's slices to length n, reusing their backing arrays when
// capacity allows so a caller-owned Batch stops allocating once warm.
func (b *Batch) grow(n int) {
	if cap(b.Transitions) >= n {
		b.Transitions = b.Transitions[:n]
	} else {
		b.Transitions = make([]Transition, n)
	}
	if cap(b.Indices) >= n {
		b.Indices = b.Indices[:n]
	} else {
		b.Indices = make([]int, n)
	}
	if cap(b.Weights) >= n {
		b.Weights = b.Weights[:n]
	} else {
		b.Weights = make([]float64, n)
	}
}

// Buffer is the interface shared by the uniform and prioritised buffers.
type Buffer interface {
	// Add stores a transition. Prioritised buffers assign it the current
	// maximum priority so every new experience is replayed at least once.
	Add(t Transition)
	// Sample draws a minibatch of size n. It panics if the buffer is empty.
	Sample(n int, rng *rand.Rand) Batch
	// SampleInto fills a caller-owned batch with n transitions, reusing
	// the batch's backing slices when they have capacity. Semantics are
	// otherwise identical to Sample.
	SampleInto(b *Batch, n int, rng *rand.Rand)
	// UpdatePriorities sets new priorities (|TD error|) for the sampled
	// indices. A no-op for the uniform buffer.
	UpdatePriorities(indices []int, tdErrors []float64)
	// Len returns the number of stored transitions.
	Len() int
	// EncodeState and DecodeState checkpoint the buffer contents —
	// transitions, ring cursors and, for the prioritised buffer, exact
	// sum-tree node values and the β-anneal position — so resumed
	// Sample draws are bit-identical. DecodeState rejects state written
	// at another capacity and counts or cursors no live buffer of this
	// capacity reaches; it allocates for the stored transitions and the
	// sum-tree pages they touch, not for the capacity.
	EncodeState(e *checkpoint.Encoder)
	DecodeState(d *checkpoint.Decoder) error
}

// Uniform is a fixed-capacity ring buffer with uniform sampling. The
// ring grows with its contents up to capacity.
type Uniform struct {
	capacity int
	data     []Transition
	next     int
	full     bool
}

// NewUniform creates a uniform replay buffer with the given capacity.
func NewUniform(capacity int) *Uniform {
	return &Uniform{capacity: capacity}
}

// Add stores t, evicting the oldest transition when full.
func (u *Uniform) Add(t Transition) {
	if len(u.data) < u.capacity {
		u.data = append(u.data, t)
		return
	}
	u.data[u.next] = t
	u.next = (u.next + 1) % u.capacity
	u.full = true
}

// Sample draws n transitions uniformly with replacement.
func (u *Uniform) Sample(n int, rng *rand.Rand) Batch {
	var b Batch
	u.SampleInto(&b, n, rng)
	return b
}

// SampleInto draws n transitions uniformly with replacement into b.
func (u *Uniform) SampleInto(b *Batch, n int, rng *rand.Rand) {
	if len(u.data) == 0 {
		panic("replay: sampling from empty buffer")
	}
	b.grow(n)
	for i := 0; i < n; i++ {
		j := rng.Intn(len(u.data))
		b.Transitions[i] = u.data[j]
		b.Indices[i] = j
		b.Weights[i] = 1
	}
}

// UpdatePriorities is a no-op for the uniform buffer.
func (u *Uniform) UpdatePriorities([]int, []float64) {}

// Len returns the number of stored transitions.
func (u *Uniform) Len() int { return len(u.data) }

// Prioritized is proportional prioritised experience replay. Priorities
// are (|δ| + ε)^α; sampling probability is proportional to priority; the
// importance-sampling correction w_i = (N·P(i))^−β is annealed towards
// full correction by increasing β to 1 over BetaAnnealSteps samples.
type Prioritized struct {
	Alpha           float64
	Beta0           float64
	BetaAnnealSteps int
	Epsilon         float64

	capacity int
	tree     *sumTree
	data     []Transition // ring; grows with its contents up to capacity
	next     int
	maxPrio  float64
	samples  int // Sample() calls, drives β annealing
}

// NewPrioritized creates a prioritised buffer with the paper's defaults
// unless overridden: α = 0.6, β₀ = 0.4 annealed to 1.
func NewPrioritized(capacity int, alpha, beta0 float64, betaAnnealSteps int) *Prioritized {
	return &Prioritized{
		Alpha:           alpha,
		Beta0:           beta0,
		BetaAnnealSteps: betaAnnealSteps,
		Epsilon:         1e-3,
		capacity:        capacity,
		tree:            newSumTree(capacity),
		maxPrio:         1,
	}
}

// Add stores t with the maximum priority seen so far.
func (p *Prioritized) Add(t Transition) {
	if len(p.data) < p.capacity { // not wrapped yet: next == len(data)
		p.data = append(p.data, t)
	} else {
		p.data[p.next] = t
	}
	p.tree.set(p.next, math.Pow(p.maxPrio, p.Alpha))
	p.next = (p.next + 1) % p.capacity
}

// beta returns the current importance-sampling exponent.
func (p *Prioritized) beta() float64 {
	if p.BetaAnnealSteps <= 0 {
		return 1
	}
	frac := float64(p.samples) / float64(p.BetaAnnealSteps)
	if frac > 1 {
		frac = 1
	}
	return p.Beta0 + (1-p.Beta0)*frac
}

// Sample draws n transitions proportionally to priority, stratified over
// the priority mass, and returns max-normalised importance weights.
func (p *Prioritized) Sample(n int, rng *rand.Rand) Batch {
	var b Batch
	p.SampleInto(&b, n, rng)
	return b
}

// SampleInto draws n transitions proportionally to priority into b,
// reusing b's backing slices when they have capacity.
func (p *Prioritized) SampleInto(b *Batch, n int, rng *rand.Rand) {
	size := len(p.data)
	if size == 0 {
		panic("replay: sampling from empty buffer")
	}
	b.grow(n)
	beta := p.beta()
	p.samples++
	total := p.tree.total()
	seg := total / float64(n)
	maxW := 0.0
	for i := 0; i < n; i++ {
		mass := (float64(i) + rng.Float64()) * seg
		if mass >= total {
			mass = math.Nextafter(total, 0)
		}
		idx := p.tree.find(mass)
		if idx >= size { // unfilled leaf with zero priority; clamp
			idx = size - 1
		}
		prob := p.tree.get(idx) / total
		if prob <= 0 {
			prob = 1 / float64(size)
		}
		w := math.Pow(float64(size)*prob, -beta)
		b.Transitions[i] = p.data[idx]
		b.Indices[i] = idx
		b.Weights[i] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range b.Weights {
			b.Weights[i] /= maxW
		}
	}
}

// UpdatePriorities assigns new |TD error| priorities to sampled indices.
func (p *Prioritized) UpdatePriorities(indices []int, tdErrors []float64) {
	for i, idx := range indices {
		prio := math.Abs(tdErrors[i]) + p.Epsilon
		if prio > p.maxPrio {
			p.maxPrio = prio
		}
		p.tree.set(idx, math.Pow(prio, p.Alpha))
	}
}

// Len returns the number of stored transitions.
func (p *Prioritized) Len() int { return len(p.data) }
