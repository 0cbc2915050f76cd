package bdq

import (
	"fmt"
	"slices"
	"sync"

	"github.com/twig-sched/twig/internal/replay"
)

// AgentPool is a queue of learning and selection work over many agents,
// run in one FlushStep: the shape a fleet coordinator drives between the
// two halves of a phased decide. Each member is an ordinary Agent — its
// own weights, replay buffer, RNG stream and step counters — and the
// flush runs each member's own Agent.Observe, then its own SelectActions
// or SelectGreedy. Nothing is computed across members (nothing in Twig
// learns or selects across agents), so a pooled member is bit-identical
// to a solo agent driven in the same order. TestPoolBitIdentical* pins
// this.
//
// Attach and Close change the pool's membership and nothing about the
// agent. The pool's methods and the members' Queue*/Take* methods are
// safe for concurrent use; the pool's mutex serialises them.
type AgentPool struct {
	mu      sync.Mutex
	members []*PooledAgent
}

// PooledAgent is an Agent that is a member of an AgentPool. The embedded
// Agent's API is unchanged and runs on the caller's goroutine; the
// Queue*/Take* pairs queue work for the pool's next FlushStep.
type PooledAgent struct {
	*Agent
	pool   *AgentPool
	closed bool

	// queued work and results, guarded by pool.mu
	hasObs    bool
	obs       replay.Transition
	hasSel    bool
	selState  []float64
	selGreedy bool
	acts      [][]int
	loss      float64
}

// NewAgentPool returns an empty pool.
func NewAgentPool() *AgentPool { return &AgentPool{} }

// Attach adds an agent to the pool's membership and returns its handle.
func (p *AgentPool) Attach(a *Agent) *PooledAgent {
	p.mu.Lock()
	defer p.mu.Unlock()
	pa := &PooledAgent{Agent: a, pool: p}
	p.members = append(p.members, pa)
	return pa
}

// Pool returns the AgentPool this member belongs to.
func (pa *PooledAgent) Pool() *AgentPool { return pa.pool }

// Members returns the number of live members.
func (p *AgentPool) Members() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// Close takes the member out of the pool, so later flushes stop visiting
// it and nothing the pool owns still refers to it: a discarded learner
// (both networks, Adam moments, replay) is the collector's once its
// owner lets go. The agent itself is untouched and remains fully usable
// and checkpointable standalone; the handle's Queue* methods panic after
// it. Idempotent.
func (pa *PooledAgent) Close() {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if pa.closed {
		return
	}
	pa.closed = true
	if i := slices.Index(p.members, pa); i >= 0 {
		p.members = slices.Delete(p.members, i, i+1) // zeroes the vacated tail slot
	}
}

// QueueObserve queues a transition for the next FlushStep's training
// phase.
func (pa *PooledAgent) QueueObserve(t replay.Transition) {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.ensureOpen()
	pa.obs = t
	pa.hasObs = true
}

// QueueSelect queues an action selection (ε-greedy, or pure greedy)
// for the next FlushStep's selection phase. The state is copied.
func (pa *PooledAgent) QueueSelect(state []float64, greedy bool) {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.ensureOpen()
	if dim := pa.cfg.Spec.StateDim; len(state) != dim {
		panic(fmt.Sprintf("bdq: state dim %d != %d", len(state), dim))
	}
	pa.selState = append(pa.selState[:0], state...)
	pa.selGreedy = greedy
	pa.hasSel = true
}

func (pa *PooledAgent) ensureOpen() {
	if pa.closed {
		panic("bdq: operation on closed pool member")
	}
}

// TakeActions returns the actions selected by the last FlushStep: the
// agent's own action storage, valid as long as SelectActions' results
// are (through the member's next selection).
func (pa *PooledAgent) TakeActions() [][]int {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	acts := pa.acts
	pa.acts = nil
	return acts
}

// TakeLoss returns the training loss of the last FlushStep (0 when the
// member did not train).
func (pa *PooledAgent) TakeLoss() float64 {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return pa.loss
}

// FlushStep runs all queued work: first the training phase (every queued
// transition goes through its member's own Agent.Observe), then the
// selection phase (every queued selection through its member's own
// SelectActions or SelectGreedy). Training precedes selection, matching
// the per-agent Observe-then-Select order of a control interval.
func (p *AgentPool) FlushStep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.members {
		if m.hasObs {
			m.hasObs = false
			m.loss = m.Agent.Observe(m.obs)
			m.obs = replay.Transition{}
		}
	}
	for _, m := range p.members {
		if !m.hasSel {
			continue
		}
		m.hasSel = false
		if m.selGreedy {
			m.acts = m.Agent.SelectGreedy(m.selState)
		} else {
			m.acts = m.Agent.SelectActions(m.selState)
		}
	}
}

// Pools is the registry fleet engines attach their managers through: one
// AgentPool for every member, whatever its architecture, since members
// share nothing.
type Pools struct {
	pool AgentPool
}

// NewPools returns an empty registry.
func NewPools() *Pools { return &Pools{} }

// For returns the registry's pool; the config is not consulted.
func (ps *Pools) For(AgentConfig) *AgentPool { return &ps.pool }

// FlushStep flushes the registry's pool.
func (ps *Pools) FlushStep() { ps.pool.FlushStep() }
