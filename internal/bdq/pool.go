package bdq

import (
	"fmt"
	"slices"
	"sync"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/replay"
)

// AgentPool batches the action selection of many agents that share one
// architecture. Each member keeps its own weights, replay buffer, RNG
// stream and step counters, and trains through its own Agent.Observe —
// nothing in Twig learns across agents — but the batch-1 eval forwards
// of all queued selections run as one block-diagonal grouped GEMM, one
// row per member, against the persistent packed weight panels the
// members' own forwards use.
//
// The pooled path is bit-identical to the per-agent one: the grouped
// kernel honours mat's ascending-k accumulation contract row by row,
// per-agent RNG streams are independent so flushing members together
// reorders no agent's own draws, and training is the solo code.
// TestPoolBitIdentical* pins this.
//
// Attach and Close change the pool's membership and nothing about the
// agent: its parameters stay where NewAgent put them. All methods are
// safe for concurrent use; the pool's mutex serialises flushes against
// attach/close.
type AgentPool struct {
	mu      sync.Mutex
	members []*PooledAgent

	spec  Spec             // template, fixed by the first Attach
	stack map[int]*stackWS // keyed by stacked row count

	selScratch []*PooledAgent // flushSelectLocked's member list, reused
}

// PooledAgent is an Agent whose action selection routes through an
// AgentPool. The embedded Agent's checkpoint, transfer and inspection
// API is unchanged; Observe/SelectActions/SelectGreedy are overridden
// with pooled equivalents, and the Queue*/Take* pairs expose the
// two-phase form fleet engines use to batch across members.
type PooledAgent struct {
	*Agent
	pool   *AgentPool
	pack   *netPack
	closed bool

	// queued work and results, guarded by pool.mu
	hasObs    bool
	obs       replay.Transition
	hasSel    bool
	selState  []float64
	selGreedy bool
	acts      [][]int
	actsBuf   [2][][]int // double-buffered action storage, flipped per select flush
	actsFlip  int
	loss      float64
}

// netPack caches the online network's grouped-GEMM operands, keyed by
// the network's weight epoch so any parameter mutation forces a rebuild.
// The packed panels themselves live on the dense layers (refreshed by
// Network.ensurePacks), shared with the network's own Forward — groups
// holds, per Denses() position, the ready-made operand (panels + bias)
// so the per-layer stacking loop is a struct copy instead of a lookup.
type netPack struct {
	epoch  int
	groups []mat.Group
}

func newNetPack() *netPack { return &netPack{epoch: -1} }

func (np *netPack) refresh(n *Network) {
	if np.epoch == n.weightEpoch {
		return
	}
	n.ensurePacks()
	ds := n.Denses()
	if cap(np.groups) < len(ds) {
		np.groups = make([]mat.Group, len(ds))
	}
	np.groups = np.groups[:len(ds)]
	for i, d := range ds {
		np.groups[i] = mat.Group{Packed: d.Pack(), Bias: d.B.Value.Data}
	}
	np.epoch = n.weightEpoch
}

// stackWS holds the grouped-forward intermediates for one stacked row
// count, mirroring Network.Forward's workspace layout.
type stackWS struct {
	x      *mat.Matrix   // stacked input
	trunk  []*mat.Matrix // per shared layer
	valHid *mat.Matrix   // value-stream hidden, reused per stream
	vals   []*mat.Matrix // per value stream: rows×1
	advHid []*mat.Matrix // per dimension
	advScr []*mat.Matrix // per dimension: advantage head output scratch
	out    *Output       // stacked Q
	means  []float64

	// Layer-group cache: per dense position, the grouped-GEMM operand
	// list for the member set the cache was built against. Rebuilt only
	// when membership or any member's weight epoch changes — a greedy
	// select loop rebuilds never, so the hot flush writes no
	// pointer-bearing structs (no GC write barriers).
	lgGroups [][]mat.Group
	lgFor    []*PooledAgent
	lgEpochs []int
}

// NewAgentPool returns an empty pool; the first Attach fixes the
// architecture template.
func NewAgentPool() *AgentPool { return &AgentPool{stack: make(map[int]*stackWS)} }

// Attach adds an agent to the pool's membership; the returned handle
// routes its selections through the pool. The agent's spec must match
// the pool template.
func (p *AgentPool) Attach(a *Agent) *PooledAgent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spec.StateDim == 0 { // no template yet: a valid spec has StateDim > 0
		p.spec = a.cfg.Spec
	}
	if !specEqual(p.spec, a.cfg.Spec) {
		panic(fmt.Sprintf("bdq: pool template (spec %+v) does not match agent (spec %+v)", p.spec, a.cfg.Spec))
	}
	pa := &PooledAgent{Agent: a, pool: p, pack: newNetPack()}
	p.members = append(p.members, pa)
	return pa
}

func specEqual(a, b Spec) bool {
	if a.StateDim != b.StateDim || a.Agents != b.Agents || a.BranchHidden != b.BranchHidden ||
		a.Dropout != b.Dropout || a.SharedValue != b.SharedValue ||
		len(a.Dims) != len(b.Dims) || len(a.SharedHidden) != len(b.SharedHidden) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	for i := range a.SharedHidden {
		if a.SharedHidden[i] != b.SharedHidden[i] {
			return false
		}
	}
	return true
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
// and checkpointable standalone; the handle panics on further use.
// Idempotent.
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
	clear(p.selScratch[:cap(p.selScratch)])
	for _, ws := range p.stack {
		ws.dropLayerGroups()
	}
}

// QueueObserve queues a transition for the next FlushStep's training
// phase.
func (pa *PooledAgent) QueueObserve(t replay.Transition) {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.queueObserveLocked(t)
}

func (pa *PooledAgent) queueObserveLocked(t replay.Transition) {
	pa.ensureOpen()
	pa.obs = t
	pa.hasObs = true
}

// QueueSelect queues an action selection (ε-greedy, or pure greedy)
// for the next FlushStep's batched selection phase. The state is
// copied.
func (pa *PooledAgent) QueueSelect(state []float64, greedy bool) {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.queueSelectLocked(state, greedy)
}

func (pa *PooledAgent) queueSelectLocked(state []float64, greedy bool) {
	pa.ensureOpen()
	if len(state) != pa.pool.spec.StateDim {
		panic(fmt.Sprintf("bdq: state dim %d != %d", len(state), pa.pool.spec.StateDim))
	}
	if pa.selState == nil {
		pa.selState = make([]float64, pa.pool.spec.StateDim)
	}
	copy(pa.selState, state)
	pa.selGreedy = greedy
	pa.hasSel = true
}

func (pa *PooledAgent) ensureOpen() {
	if pa.closed {
		panic("bdq: operation on closed pool member")
	}
}

// TakeActions returns the actions selected by the last FlushStep. The
// returned slices are double-buffered member storage: they stay valid
// through the member's next select flush and are overwritten by the one
// after that. Callers that hold actions longer must copy them.
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

// Observe is the pooled single-agent form: queue, flush, take, under
// one lock acquisition. When other members have queued work it is
// flushed too (members are independent, so this is safe).
func (pa *PooledAgent) Observe(t replay.Transition) float64 {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.queueObserveLocked(t)
	p.flushTrainLocked()
	p.flushSelectLocked()
	return pa.loss
}

// SelectActions is the pooled ε-greedy selection for one member.
func (pa *PooledAgent) SelectActions(state []float64) [][]int {
	return pa.selectOneLocked(state, false)
}

// SelectGreedy is the pooled pure-exploitation selection for one
// member (no step advance, no exploration draws).
func (pa *PooledAgent) SelectGreedy(state []float64) [][]int {
	return pa.selectOneLocked(state, true)
}

// selectOneLocked is the combined queue-flush-take selection path:
// identical work to QueueSelect + FlushStep + TakeActions, but with a
// single lock acquisition. When no other member has a selection
// queued, the solo fall-through runs directly on the caller's state —
// no queue round-trip, no state copy.
func (pa *PooledAgent) selectOneLocked(state []float64, greedy bool) [][]int {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pa.ensureOpen()
	if len(state) != p.spec.StateDim {
		panic(fmt.Sprintf("bdq: state dim %d != %d", len(state), p.spec.StateDim))
	}
	p.flushTrainLocked()
	for _, m := range p.members {
		if m.hasSel {
			// Another member queued a selection: batch with it through
			// the grouped flush, exactly as FlushStep would.
			pa.queueSelectLocked(state, greedy)
			p.flushSelectLocked()
			acts := pa.acts
			pa.acts = nil
			return acts
		}
	}
	return pa.selectSingle(state, greedy)
}

// FlushStep runs all queued work: first the training phase (every
// queued transition goes through its member's own Agent.Observe), then
// the batched selection phase (one grouped forward for all queued
// selections). Training precedes selection, matching the per-agent
// Observe-then-Select order of a control interval.
func (p *AgentPool) FlushStep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushTrainLocked()
	p.flushSelectLocked()
}

func (p *AgentPool) flushTrainLocked() {
	for _, m := range p.members {
		if !m.hasObs {
			continue
		}
		m.hasObs = false
		m.loss = m.Agent.Observe(m.obs)
		m.obs = replay.Transition{}
	}
}

func (p *AgentPool) flushSelectLocked() {
	sel := p.selScratch[:0]
	for _, m := range p.members {
		if m.hasSel {
			sel = append(sel, m)
		}
	}
	p.selScratch = sel
	if len(sel) == 0 {
		return
	}
	if len(sel) == 1 {
		m := sel[0]
		m.acts = m.selectSingle(m.selState, m.selGreedy)
		m.hasSel = false
		return
	}
	ws := p.stackWorkspace(len(sel))
	for s, m := range sel {
		copy(ws.x.Row(s), m.selState)
	}
	out := p.stackedEval(sel, ws)
	for s, m := range sel {
		m.acts = m.takeRow(out, s, m.selGreedy)
		m.hasSel = false
	}
}

// selectSingle is the lone-selector fall-through: skip the grouped
// stacking and run the member's own eval forward (itself on persistent
// packed panels) — the solo path minus its per-call allocations,
// bit-identical to both the solo and grouped paths.
func (pa *PooledAgent) selectSingle(state []float64, greedy bool) [][]int {
	return pa.takeRow(pa.Agent.online.Forward(pa.Agent.stateInput(state), false), 0, greedy)
}

// takeRow turns row `row` of an eval forward into the member's actions:
// the per-branch argmax written into the double-buffered action storage
// (flipped here, allocated on first use), with ε-greedy exploration laid
// over it unless greedy.
func (pa *PooledAgent) takeRow(out *Output, row int, greedy bool) [][]int {
	spec := pa.pool.spec
	K, D := spec.Agents, len(spec.Dims)
	pa.actsFlip ^= 1
	acts := pa.actsBuf[pa.actsFlip]
	if acts == nil {
		acts = make([][]int, K)
		for k := range acts {
			acts[k] = make([]int, D)
		}
		pa.actsBuf[pa.actsFlip] = acts
	}
	for k := 0; k < K; k++ {
		for d := 0; d < D; d++ {
			acts[k][d] = mat.Argmax(out.Q[k][d].Row(row))
		}
	}
	if !greedy {
		acts = pa.Agent.applyExploration(acts)
	}
	return acts
}

// stackWorkspace returns the grouped-forward workspace for the given
// stacked row count, building it on first use.
func (p *AgentPool) stackWorkspace(rows int) *stackWS {
	if ws := p.stack[rows]; ws != nil {
		return ws
	}
	spec := p.spec
	numValues := spec.Agents
	if spec.SharedValue {
		numValues = 1
	}
	ws := &stackWS{
		x:      mat.New(rows, spec.StateDim),
		valHid: mat.New(rows, spec.BranchHidden),
		means:  make([]float64, rows),
		out:    &Output{Q: make([][]*mat.Matrix, spec.Agents)},
	}
	for _, h := range spec.SharedHidden {
		ws.trunk = append(ws.trunk, mat.New(rows, h))
	}
	for v := 0; v < numValues; v++ {
		ws.vals = append(ws.vals, mat.New(rows, 1))
	}
	for _, na := range spec.Dims {
		ws.advHid = append(ws.advHid, mat.New(rows, spec.BranchHidden))
		ws.advScr = append(ws.advScr, mat.New(rows, na))
	}
	for k := range ws.out.Q {
		ws.out.Q[k] = make([]*mat.Matrix, len(spec.Dims))
		for d, na := range spec.Dims {
			ws.out.Q[k][d] = mat.New(rows, na)
		}
	}
	p.stack[rows] = ws
	return ws
}

// stackedEval runs the eval-mode forward of every member's online
// network over the stacked input ws.x — row s is member s's state — one
// grouped GEMM per layer position, into the stacked Output. The dueling
// aggregation is element-for-element the arithmetic of Network.Forward,
// and each member's row is bit-identical to its own Forward over it.
func (p *AgentPool) stackedEval(members []*PooledAgent, ws *stackWS) *Output {
	spec := p.spec
	T := len(spec.SharedHidden)
	K, D := spec.Agents, len(spec.Dims)
	numValues := K
	if spec.SharedValue {
		numValues = 1
	}
	for _, m := range members {
		m.pack.refresh(m.Agent.online) // once; layers read the group cache
	}
	// All members share one architecture, so layer activations (FuseReLU)
	// are read from the first member's network.
	ref := members[0].Agent.online.Denses()
	ws.refreshLayerGroups(members, len(ref))
	layer := func(dst, src *mat.Matrix, idx int) {
		var act mat.Activation = mat.ActIdentity
		if ref[idx].FuseReLU {
			act = mat.ActReLU
		}
		mat.MulGroupedBiasAct(dst, src, 1, ws.lgGroups[idx], act)
	}

	cur := ws.x
	for li := 0; li < T; li++ {
		layer(ws.trunk[li], cur, li)
		cur = ws.trunk[li]
	}
	z := cur
	for v := 0; v < numValues; v++ {
		layer(ws.valHid, z, T+2*v)
		layer(ws.vals[v], ws.valHid, T+2*v+1)
	}
	for d := 0; d < D; d++ {
		layer(ws.advHid[d], z, T+2*numValues+d)
	}
	for k := 0; k < K; k++ {
		v := ws.vals[0]
		if !spec.SharedValue {
			v = ws.vals[k]
		}
		for d := 0; d < D; d++ {
			layer(ws.advScr[d], ws.advHid[d], T+2*numValues+D+k*D+d)
			a := ws.advScr[d]
			q := ws.out.Q[k][d]
			a.RowMeansInto(ws.means)
			for b := 0; b < a.Rows; b++ {
				vb := v.At(b, 0)
				arow := a.Row(b)
				qrow := q.Row(b)
				for j := range qrow {
					qrow[j] = vb + arow[j] - ws.means[b]
				}
			}
		}
	}
	return ws.out
}

// refreshLayerGroups revalidates the workspace's per-layer group lists
// against the current member set and weight epochs, rebuilding them
// only on a change. Steady-state greedy selection (no weight updates,
// stable membership) reuses the cache untouched. The members' packs
// must be fresh (netPack.refresh).
func (ws *stackWS) refreshLayerGroups(members []*PooledAgent, layers int) {
	valid := len(ws.lgFor) == len(members) // a workspace never stacks zero rows
	if valid {
		for s, m := range members {
			if ws.lgFor[s] != m || ws.lgEpochs[s] != m.pack.epoch {
				valid = false
				break
			}
		}
	}
	if valid {
		return
	}
	if len(ws.lgGroups) != layers {
		ws.lgGroups = make([][]mat.Group, layers)
	}
	for idx := 0; idx < layers; idx++ {
		g := ws.lgGroups[idx]
		if cap(g) < len(members) {
			g = make([]mat.Group, len(members))
		}
		g = g[:len(members)]
		for s, m := range members {
			g[s] = m.pack.groups[idx]
		}
		ws.lgGroups[idx] = g
	}
	ws.lgFor = append(ws.lgFor[:0], members...)
	if cap(ws.lgEpochs) < len(members) {
		ws.lgEpochs = make([]int, len(members))
	}
	ws.lgEpochs = ws.lgEpochs[:len(members)]
	for s, m := range members {
		ws.lgEpochs[s] = m.pack.epoch
	}
}

// dropLayerGroups empties the cache, keeping its storage: the member
// list and every operand (a member's packed panels and bias) are zeroed
// to capacity, and the next flush at this row count rebuilds them.
func (ws *stackWS) dropLayerGroups() {
	clear(ws.lgFor[:cap(ws.lgFor)])
	ws.lgFor = ws.lgFor[:0]
	for _, g := range ws.lgGroups {
		clear(g[:cap(g)])
	}
}

// Pools is a registry of agent pools keyed by architecture, so fleet
// engines whose nodes run differently shaped managers (daemon
// membership generations, heterogeneous clusters) still batch the
// selections of same-shaped agents together.
type Pools struct {
	mu sync.Mutex
	m  map[string]*AgentPool
}

// NewPools returns an empty registry.
func NewPools() *Pools { return &Pools{m: make(map[string]*AgentPool)} }

// For returns the pool for the agent config's architecture signature,
// creating it on first use.
func (ps *Pools) For(cfg AgentConfig) *AgentPool {
	key := fmt.Sprintf("%d|%d|%v|%v|%d|%g|%t",
		cfg.Spec.StateDim, cfg.Spec.Agents, cfg.Spec.Dims, cfg.Spec.SharedHidden,
		cfg.Spec.BranchHidden, cfg.Spec.Dropout, cfg.Spec.SharedValue)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	pool := ps.m[key]
	if pool == nil {
		pool = NewAgentPool()
		ps.m[key] = pool
	}
	return pool
}

// FlushStep flushes every pool in the registry (deterministic order is
// unnecessary: members are independent and each pool's own flush is
// order-preserving per member).
func (ps *Pools) FlushStep() {
	ps.mu.Lock()
	pools := make([]*AgentPool, 0, len(ps.m))
	for _, p := range ps.m {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	for _, p := range pools {
		p.FlushStep()
	}
}
