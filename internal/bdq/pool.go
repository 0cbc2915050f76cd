package bdq

import (
	"fmt"
	"sync"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
)

// AgentPool batches the network compute of many agents that share one
// architecture. Each member keeps its own weights, replay buffer, RNG
// stream and step counters — decision-making stays per-agent — but the
// eval-mode forwards (action selection and both TD-target sweeps) run
// as one block-diagonal grouped GEMM over all queued members, against
// persistent packed weight panels instead of the streaming batch-1
// kernels.
//
// The pooled path is bit-identical to the per-agent one: the grouped
// kernels honour mat's ascending-k accumulation contract band by band,
// per-agent RNG streams are independent so cross-agent phase
// interleaving reorders no agent's own draws, and the train-mode
// forward/backward (whose Dropout draws must stay in-stream) remains
// strictly per-agent. TestPoolBitIdentical* pins this.
//
// Parameters live in a pooled nn.Arena: admit maps to slot alloc +
// adopt, drain maps to detach + release, so fleet membership churn
// reuses slabs deterministically. All methods are safe for concurrent
// use; the pool's mutex serialises flushes against attach/close.
type AgentPool struct {
	mu      sync.Mutex
	members []*PooledAgent

	// template, fixed by the first Attach
	spec  Spec
	batch int // minibatch rows, uniform across members

	arena *nn.Arena
	stack map[int]*stackWS // keyed by stacked row count

	selScratch  []*PooledAgent // flushSelectLocked's member list, reused
	warmScratch []*PooledAgent // flushTrainLocked's stored-and-warm list, reused
	actScratch  []*PooledAgent // flushTrainLocked's per-round active list, reused
}

// PooledAgent is an Agent whose batched operations route through an
// AgentPool. The embedded Agent's checkpoint, transfer and inspection
// API is unchanged; Observe/SelectActions/SelectGreedy are overridden
// with pooled equivalents, and the Queue*/Take* pairs expose the
// two-phase form fleet engines use to batch across members.
type PooledAgent struct {
	*Agent
	pool       *AgentPool
	slotOnline int
	slotTarget int
	onlinePack *netPack
	targetPack *netPack
	closed     bool

	// cached arena slab views of the online slot, for the fused flat
	// optimiser pass (valid until Close releases the slot)
	onlineVal, onlineGrad, onlineM, onlineV []float64

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

// netPack caches one network's grouped-GEMM operands, keyed by the
// network's weight epoch so any parameter mutation forces a rebuild.
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
	pks    []*netPack // per-member pack caches, resolved once per eval

	// Per member band, the live sets (mat.Live) of the eval activations
	// several layers read: the representation and each advantage hidden
	// layer's output, scanned by the first grouped product over them.
	zLive   []mat.Live
	advLive [][]mat.Live

	// Layer-group cache: per dense position, the grouped-GEMM operand
	// list for the member set the cache was built against. Rebuilt only
	// when membership, network side (online/target) or any member's
	// weight epoch changes — a greedy select loop rebuilds never, so the
	// hot flush writes no pointer-bearing structs (no GC write
	// barriers).
	lgGroups [][]mat.Group
	lgFor    []*PooledAgent
	lgEpochs []int
	lgTarget bool
	lgValid  bool

	train *trainStack // lazily built grouped-training scratch
}

// trainStack holds the stacked train-mode forward activations and the
// stacked backward scratch for one stacked row count — the pooled
// equivalents of each member's layer caches and Network.bwdWS. The
// train-mode forward needs its own output (ts.q) and per-stream value
// hiddens because the TD targets keep reading the eval workspace
// (ws.out) while the loss consumes the train-mode Q.
type trainStack struct {
	q     *Output         // train-mode stacked Q
	gradQ [][]*mat.Matrix // [K][D] rows×Dims[d] loss gradient
	z     *mat.Matrix     // trunk output feeding the streams (set per forward)

	drop   []*mat.Matrix // per trunk layer: post-dropout activations
	mask   []*mat.Matrix // per trunk layer: inverted-dropout masks
	valHid []*mat.Matrix // per value stream: rows×BranchHidden hidden

	sharedGrad *mat.Matrix   // rows×repr gradient entering the trunk
	gv         *mat.Matrix   // rows×1 value-stream gradient
	combined   *mat.Matrix   // rows×BranchHidden, summed over agents
	centered   []*mat.Matrix // per dimension: rows×Dims[d]
	gBH1, gBH2 *mat.Matrix   // rows×BranchHidden backward scratch
	gTrunk     []*mat.Matrix // per trunk layer: dropout-masked gradient
	gmTrunk    []*mat.Matrix // per trunk layer: ReLU-masked gradient
	gTrunkIn   []*mat.Matrix // per trunk layer li>0: rows×h_{li−1} upstream
	colSums    []float64     // widest dense output
	wg, wv     []*mat.Matrix // per-member W.Grad / W.Value operand lists

	bands []trainBand   // cached per-member band views
	xband []*mat.Matrix // per-member band views of ws.x

	// Per member band, the live sets (mat.Live) of the train-mode
	// activations — each scanned by the first grouped product that reads
	// the activation and held for the backward, as nn.Dense holds its
	// input's — and of the gradient one backward layer is multiplying.
	xLive   [][]mat.Live // per trunk layer: its input's
	zLive   []mat.Live   // the representation's
	valLive [][]mat.Live // per value stream: the hidden layer's output's
	advLive [][]mat.Live // per dimension: the advantage hidden's output's
	gLive   []mat.Live

	// Per trunk layer, per member: band views for the train-forward
	// dropout sweep (built only when the spec has Dropout).
	dropBand, maskBand, trunkBand [][]*mat.Matrix
}

// trainBand is the band view of member s over the stacked train-mode
// output, eval target output and loss gradient — the per-member shapes
// trainTargets/trainLossGrad consume.
type trainBand struct {
	q, tgt *Output
	gq     [][]*mat.Matrix
}

// NewAgentPool returns an empty pool; the first Attach fixes the
// architecture template.
func NewAgentPool() *AgentPool { return &AgentPool{stack: make(map[int]*stackWS)} }

// Attach moves an agent into the pool: both networks' parameters are
// adopted into the arena (bit-identically — see nn.Arena) and the
// returned handle routes batched operations through the pool. The
// agent's spec and minibatch shape must match the pool template.
func (p *AgentPool) Attach(a *Agent) *PooledAgent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.arena == nil {
		p.spec = a.cfg.Spec
		p.batch = a.cfg.BatchSize
		p.arena = nn.NewArena(nn.ShapesOf(a.online.Params()), 0)
	}
	if !specEqual(p.spec, a.cfg.Spec) || p.batch != a.cfg.BatchSize {
		panic(fmt.Sprintf("bdq: pool template (spec %+v, batch %d) does not match agent (spec %+v, batch %d)",
			p.spec, p.batch, a.cfg.Spec, a.cfg.BatchSize))
	}
	pa := &PooledAgent{
		Agent:      a,
		pool:       p,
		slotOnline: p.arena.Alloc(),
		slotTarget: p.arena.Alloc(),
		onlinePack: newNetPack(),
		targetPack: newNetPack(),
	}
	p.arena.Adopt(pa.slotOnline, a.online.Params())
	p.arena.Adopt(pa.slotTarget, a.target.Params())
	pa.onlineVal, pa.onlineGrad, pa.onlineM, pa.onlineV = p.arena.SlotSlabs(pa.slotOnline)
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

// Close drains the member out of the pool: its parameters are detached
// from the arena (deep-copied, so the agent remains fully usable and
// checkpointable standalone) and the slots are released for reuse.
// Idempotent.
func (pa *PooledAgent) Close() {
	p := pa.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if pa.closed {
		return
	}
	pa.closed = true
	nn.Detach(pa.Agent.online.Params())
	nn.Detach(pa.Agent.target.Params())
	p.arena.Release(pa.slotOnline)
	p.arena.Release(pa.slotTarget)
	for i, m := range p.members {
		if m == pa {
			p.members = append(p.members[:i], p.members[i+1:]...)
			break
		}
	}
}

// QueueObserve queues a transition for the next FlushStep's batched
// training phase.
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
// flushed too (the batched path is order-preserving per member, so
// this is safe).
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
	return p.selectSingle(pa, state, greedy)
}

// FlushStep runs all queued work: first the batched training phase
// (every queued transition is stored; warm members train with batched
// TD-target forwards and per-member backprop), then the batched
// selection phase (one grouped forward for all queued selections).
// Training precedes selection, matching the per-agent Observe-then-
// Select order of a control interval.
func (p *AgentPool) FlushStep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushTrainLocked()
	p.flushSelectLocked()
}

func (p *AgentPool) flushTrainLocked() {
	warm := p.warmScratch[:0]
	for _, m := range p.members {
		if !m.hasObs {
			continue
		}
		m.hasObs = false
		m.loss = 0
		if m.Agent.observeAdd(m.obs) {
			warm = append(warm, m)
		}
		m.obs = replay.Transition{}
	}
	p.warmScratch = warm
	if len(warm) == 0 {
		return
	}
	maxRounds := 0
	for _, m := range warm {
		if r := m.Agent.cfg.TrainPerStep; r > maxRounds {
			maxRounds = r
		}
	}
	n := p.batch
	for round := 0; round < maxRounds; round++ {
		act := p.actScratch[:0]
		for _, m := range warm {
			if m.Agent.cfg.TrainPerStep > round {
				act = append(act, m)
			}
		}
		p.actScratch = act
		if len(act) == 0 {
			break
		}
		if len(act) == 1 {
			// A lone warm member has nothing to batch against: the
			// grouped stacking would only add copy and packing overhead.
			// Run the monolithic step — bit-identical by construction
			// (the pooled phases replicate exactly this sequence).
			m := act[0]
			m.loss = m.Agent.TrainStep()
			continue
		}
		// Phase 1: per-member minibatch sampling (own RNG streams).
		for _, m := range act {
			m.Agent.trainWorkspace()
			if got := m.Agent.trainSample(); got != n {
				panic(fmt.Sprintf("bdq: pooled member sampled %d rows, pool batch is %d", got, n))
			}
		}
		// Phase 2+3: batched online forward on s′, per-member argmax.
		// stackedEval writes into ws.out, which ts.bands[s].tgt views:
		// until phase 4 overwrites it, the tgt bands hold the online
		// outputs the argmax reads.
		ws := p.stackWorkspace(len(act) * n)
		ts := ws.trainStack(p, len(act))
		for s, m := range act {
			ts.xband[s].CopyFrom(m.Agent.train.next)
		}
		p.stackedEval(act, false, ws, n)
		for s, m := range act {
			m.Agent.trainArgmax(ts.bands[s].tgt, n)
		}
		// Phase 4: batched target forward on s′ (same stacked input).
		p.stackedEval(act, true, ws, n)
		// Phase 5: per-member bootstrap targets from the target bands.
		for s, m := range act {
			m.Agent.trainTargets(ts.bands[s].tgt, n)
		}
		// Phase 6: batched train-mode forward on s (grouped GEMMs, with
		// each member's Dropout draws taken from its own stream in its
		// solo order), then per-member loss and Q-gradient extraction.
		for s, m := range act {
			ts.xband[s].CopyFrom(m.Agent.train.states)
		}
		p.stackedTrainForward(act, ws, ts, n)
		for s, m := range act {
			m.loss = m.Agent.trainLossGrad(ts.bands[s].q, ts.bands[s].tgt, ts.bands[s].gq, n)
		}
		// Phase 7: batched backward — per-member mask/bias sweeps plus
		// grouped weight-gradient and upstream-gradient GEMMs, in each
		// member's exact solo operation order.
		p.stackedBackward(act, ws, ts, n)
		// Phase 8: per-member commit, with the Adam step fused into one
		// pass over each member's contiguous arena slabs.
		for _, m := range act {
			m.Agent.trainCommitPooled(m.onlineVal, m.onlineGrad, m.onlineM, m.onlineV)
		}
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
		m.acts = p.selectSingle(m, m.selState, m.selGreedy)
		m.hasSel = false
		return
	}
	ws := p.stackWorkspace(len(sel))
	for s, m := range sel {
		copy(ws.x.Row(s), m.selState)
	}
	out := p.stackedEval(sel, false, ws, 1)
	K, D := p.spec.Agents, len(p.spec.Dims)
	for s, m := range sel {
		m.actsFlip ^= 1
		acts := m.actsBuf[m.actsFlip]
		if acts == nil {
			acts = make([][]int, K)
			for k := range acts {
				acts[k] = make([]int, D)
			}
			m.actsBuf[m.actsFlip] = acts
		}
		for k := 0; k < K; k++ {
			for d := 0; d < D; d++ {
				acts[k][d] = mat.Argmax(out.Q[k][d].Row(s))
			}
		}
		if !m.selGreedy {
			acts = m.Agent.applyExploration(acts)
		}
		m.acts = acts
		m.hasSel = false
	}
}

// selectSingle is the lone-selector fall-through: skip the grouped
// stacking and run the member's own eval forward (itself on persistent
// packed panels), writing the argmax into the double-buffered action
// storage — the solo path minus its per-call allocations, bit-identical
// to both the solo and grouped paths.
func (p *AgentPool) selectSingle(m *PooledAgent, state []float64, greedy bool) [][]int {
	out := m.Agent.online.Forward(m.Agent.stateInput(state), false)
	K, D := p.spec.Agents, len(p.spec.Dims)
	m.actsFlip ^= 1
	acts := m.actsBuf[m.actsFlip]
	if acts == nil {
		acts = make([][]int, K)
		for k := range acts {
			acts[k] = make([]int, D)
		}
		m.actsBuf[m.actsFlip] = acts
	}
	for k := 0; k < K; k++ {
		for d := 0; d < D; d++ {
			acts[k][d] = mat.Argmax(out.Q[k][d].Row(0))
		}
	}
	if !greedy {
		acts = m.Agent.applyExploration(acts)
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

		advLive: make([][]mat.Live, len(spec.Dims)),
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

// pack returns the member's pack cache for the online or target
// network, refreshed to the network's current weight epoch.
func (pa *PooledAgent) pack(target bool) *netPack {
	if target {
		pa.targetPack.refresh(pa.Agent.target)
		return pa.targetPack
	}
	pa.onlinePack.refresh(pa.Agent.online)
	return pa.onlinePack
}

func (pa *PooledAgent) net(target bool) *Network {
	if target {
		return pa.Agent.target
	}
	return pa.Agent.online
}

// stackedEval runs the eval-mode forward of every member's online (or
// target) network over the stacked input ws.x, one grouped GEMM per
// layer position, into the stacked Output. The dueling aggregation is
// element-for-element the arithmetic of Network.Forward, and each
// member's band is bit-identical to its own Forward over its rows.
func (p *AgentPool) stackedEval(members []*PooledAgent, target bool, ws *stackWS, rowsPer int) *Output {
	spec := p.spec
	T := len(spec.SharedHidden)
	K, D := spec.Agents, len(spec.Dims)
	numValues := K
	if spec.SharedValue {
		numValues = 1
	}
	if cap(ws.pks) < len(members) {
		ws.pks = make([]*netPack, len(members))
	}
	pks := ws.pks[:len(members)]
	for s, m := range members {
		pks[s] = m.pack(target) // refresh once; layers read the group cache
	}
	// All members share one architecture, so layer activations (FuseReLU)
	// are read from the first member's network.
	ref := members[0].net(target).Denses()
	ws.refreshLayerGroups(members, pks, target, len(ref))
	layer := func(dst, src *mat.Matrix, srcLive []mat.Live, idx int) {
		var act mat.Activation = mat.ActIdentity
		if ref[idx].FuseReLU {
			act = mat.ActReLU
		}
		mat.MulGroupedBiasActLive(dst, src, srcLive, rowsPer, ws.lgGroups[idx], act)
	}

	cur := ws.x
	for li := 0; li < T; li++ {
		layer(ws.trunk[li], cur, nil, li)
		cur = ws.trunk[li]
	}
	z, zLive := cur, liveBands(&ws.zLive, len(members))
	for v := 0; v < numValues; v++ {
		layer(ws.valHid, z, zLive, T+2*v)
		layer(ws.vals[v], ws.valHid, nil, T+2*v+1)
	}
	for d := 0; d < D; d++ {
		layer(ws.advHid[d], z, zLive, T+2*numValues+d)
		liveBands(&ws.advLive[d], len(members))
	}
	for k := 0; k < K; k++ {
		v := ws.vals[0]
		if !spec.SharedValue {
			v = ws.vals[k]
		}
		for d := 0; d < D; d++ {
			layer(ws.advScr[d], ws.advHid[d], ws.advLive[d], T+2*numValues+D+k*D+d)
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
// stable membership) reuses the cache untouched.
func (ws *stackWS) refreshLayerGroups(members []*PooledAgent, pks []*netPack, target bool, layers int) {
	valid := ws.lgValid && ws.lgTarget == target && len(ws.lgFor) == len(members)
	if valid {
		for s, m := range members {
			if ws.lgFor[s] != m || ws.lgEpochs[s] != pks[s].epoch {
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
		for s := range pks {
			g[s] = pks[s].groups[idx]
		}
		ws.lgGroups[idx] = g
	}
	ws.lgFor = append(ws.lgFor[:0], members...)
	if cap(ws.lgEpochs) < len(members) {
		ws.lgEpochs = make([]int, len(members))
	}
	ws.lgEpochs = ws.lgEpochs[:len(members)]
	for s := range pks {
		ws.lgEpochs[s] = pks[s].epoch
	}
	ws.lgTarget = target
	ws.lgValid = true
}

// trainStack returns the grouped-training scratch bound to this
// stacked workspace, building it on first use. The stacked row count
// fixes the member count (rows = members × pool batch), so the band
// views are carved once.
func (ws *stackWS) trainStack(p *AgentPool, members int) *trainStack {
	if ws.train != nil {
		return ws.train
	}
	spec := p.spec
	rows := ws.x.Rows
	n := p.batch
	T := len(spec.SharedHidden)
	repr := spec.SharedHidden[T-1]
	numValues := spec.Agents
	if spec.SharedValue {
		numValues = 1
	}
	ts := &trainStack{
		q:          &Output{Q: make([][]*mat.Matrix, spec.Agents)},
		gradQ:      make([][]*mat.Matrix, spec.Agents),
		sharedGrad: mat.New(rows, repr),
		gv:         mat.New(rows, 1),
		combined:   mat.New(rows, spec.BranchHidden),
		centered:   make([]*mat.Matrix, len(spec.Dims)),
		gBH1:       mat.New(rows, spec.BranchHidden),
		gBH2:       mat.New(rows, spec.BranchHidden),
		xLive:      make([][]mat.Live, T),
		valLive:    make([][]mat.Live, numValues),
		advLive:    make([][]mat.Live, len(spec.Dims)),
	}
	for k := range ts.q.Q {
		ts.q.Q[k] = make([]*mat.Matrix, len(spec.Dims))
		ts.gradQ[k] = make([]*mat.Matrix, len(spec.Dims))
		for d, na := range spec.Dims {
			ts.q.Q[k][d] = mat.New(rows, na)
			ts.gradQ[k][d] = mat.New(rows, na)
		}
	}
	maxOut := spec.BranchHidden
	for _, h := range spec.SharedHidden {
		if h > maxOut {
			maxOut = h
		}
	}
	for d, na := range spec.Dims {
		ts.centered[d] = mat.New(rows, na)
		if na > maxOut {
			maxOut = na
		}
	}
	ts.colSums = make([]float64, maxOut)
	for li, h := range spec.SharedHidden {
		if spec.Dropout > 0 {
			ts.drop = append(ts.drop, mat.New(rows, h))
			ts.mask = append(ts.mask, mat.New(rows, h))
			ts.gTrunk = append(ts.gTrunk, mat.New(rows, h))
		}
		ts.gmTrunk = append(ts.gmTrunk, mat.New(rows, h))
		if li > 0 {
			ts.gTrunkIn = append(ts.gTrunkIn, mat.New(rows, spec.SharedHidden[li-1]))
		} else {
			ts.gTrunkIn = append(ts.gTrunkIn, nil)
		}
	}
	for v := 0; v < numValues; v++ {
		ts.valHid = append(ts.valHid, mat.New(rows, spec.BranchHidden))
	}
	ts.bands = make([]trainBand, members)
	ts.xband = make([]*mat.Matrix, members)
	for s := range ts.bands {
		ts.bands[s] = trainBand{
			q:   bandOutput(ts.q, s, n),
			tgt: bandOutput(ws.out, s, n),
			gq:  bandGradQ(ts.gradQ, s, n),
		}
		ts.xband[s] = ws.x.RowsView(s*n, (s+1)*n)
	}
	if spec.Dropout > 0 {
		ts.dropBand = make([][]*mat.Matrix, T)
		ts.maskBand = make([][]*mat.Matrix, T)
		ts.trunkBand = make([][]*mat.Matrix, T)
		for li := 0; li < T; li++ {
			ts.dropBand[li] = make([]*mat.Matrix, members)
			ts.maskBand[li] = make([]*mat.Matrix, members)
			ts.trunkBand[li] = make([]*mat.Matrix, members)
			for s := 0; s < members; s++ {
				r0, r1 := s*n, (s+1)*n
				ts.dropBand[li][s] = ts.drop[li].RowsView(r0, r1)
				ts.maskBand[li][s] = ts.mask[li].RowsView(r0, r1)
				ts.trunkBand[li][s] = ws.trunk[li].RowsView(r0, r1)
			}
		}
	}
	ws.train = ts
	return ts
}

// stackedTrainForward runs the train-mode forward of every member's
// online network over the stacked minibatch states in ws.x: grouped
// GEMMs for every dense layer, per-member-band Dropout (each member's
// RNG draws taken from its own stream in its solo order — row-major
// per layer, trunk layer 0 before layer 1), and the dueling assembly
// into ts.q. Each member's band is bit-identical to its own
// Forward(states, true).
func (p *AgentPool) stackedTrainForward(act []*PooledAgent, ws *stackWS, ts *trainStack, rowsPer int) {
	spec := p.spec
	T := len(spec.SharedHidden)
	K, D := spec.Agents, len(spec.Dims)
	numValues := K
	if spec.SharedValue {
		numValues = 1
	}
	if cap(ws.pks) < len(act) {
		ws.pks = make([]*netPack, len(act))
	}
	pks := ws.pks[:len(act)]
	for s, m := range act {
		pks[s] = m.pack(false)
	}
	ref := act[0].Agent.online.Denses()
	ws.refreshLayerGroups(act, pks, false, len(ref))
	layer := func(dst, src *mat.Matrix, srcLive []mat.Live, idx int) {
		var a mat.Activation = mat.ActIdentity
		if ref[idx].FuseReLU {
			a = mat.ActReLU
		}
		mat.MulGroupedBiasActLive(dst, src, srcLive, rowsPer, ws.lgGroups[idx], a)
		for s, m := range act {
			m.Agent.online.Denses()[idx].NoteLiveInputs(ws.lgGroups[idx][s].Live)
		}
	}

	cur := ws.x
	for li := 0; li < T; li++ {
		layer(ws.trunk[li], cur, liveBands(&ts.xLive[li], len(act)), li)
		cur = ws.trunk[li]
		if spec.Dropout > 0 {
			for s, m := range act {
				m.Agent.online.trunkDropout(li).ApplyTrain(
					ts.dropBand[li][s], ts.maskBand[li][s], ts.trunkBand[li][s])
			}
			cur = ts.drop[li]
		}
	}
	ts.z = cur
	zLive := liveBands(&ts.zLive, len(act))
	for v := 0; v < numValues; v++ {
		layer(ts.valHid[v], cur, zLive, T+2*v)
		layer(ws.vals[v], ts.valHid[v], liveBands(&ts.valLive[v], len(act)), T+2*v+1)
	}
	for d := 0; d < D; d++ {
		layer(ws.advHid[d], cur, zLive, T+2*numValues+d)
		liveBands(&ts.advLive[d], len(act))
	}
	for k := 0; k < K; k++ {
		v := ws.vals[0]
		if !spec.SharedValue {
			v = ws.vals[k]
		}
		for d := 0; d < D; d++ {
			layer(ws.advScr[d], ws.advHid[d], ts.advLive[d], T+2*numValues+D+k*D+d)
			a := ws.advScr[d]
			q := ts.q.Q[k][d]
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
}

// groupedDenseBackward replicates Dense.Backward for the dense at
// Denses() position idx of every active member over stacked bands: the
// per-member mask/column-sum sweep keeps each member's solo arithmetic
// (and accumulates its bias gradient), then one grouped GEMM
// accumulates every member's weight gradient and one more computes the
// stacked upstream gradient. lastX and xLive are the layer's stacked
// input and its bands' live sets, which gate the upstream gradient where
// the layer declares GatedInput; lastOut/gm are the ReLU mask source and
// masked-gradient buffer (nil for linear layers); gradIn nil skips the
// upstream product (trunk layer 0, whose input gradient is unread), and
// accumulate adds it to gradIn like Dense.BackwardAcc.
func (p *AgentPool) groupedDenseBackward(act []*PooledAgent, ts *trainStack, idx int, lastX *mat.Matrix, xLive []mat.Live, lastOut, g, gm, gradIn *mat.Matrix, accumulate bool, n int) {
	fuse := lastOut != nil
	width := g.Cols
	cs := ts.colSums[:width]
	geff := g
	if fuse {
		geff = gm
	}
	for s, m := range act {
		dn := m.Agent.online.Denses()[idx]
		r0 := s * n
		if fuse {
			// Dense.Backward's fused sweep: mask by "output > 0" and
			// build the bias column sums row-major, per member band.
			clear(cs)
			for i := r0; i < r0+n; i++ {
				nn.MaskReLUGrad(gm.Row(i), cs, g.Row(i), lastOut.Row(i))
			}
		} else {
			gb := mat.Matrix{Rows: n, Cols: width, Data: g.Data[r0*width : (r0+n)*width]}
			gb.ColSumsInto(cs)
		}
		mat.Axpy(1, cs, dn.B.Grad.Data)
	}
	wg := ts.wg[:0]
	for _, m := range act {
		wg = append(wg, m.Agent.online.Denses()[idx].W.Grad)
	}
	ts.wg = wg
	gLive := liveBands(&ts.gLive, len(act))
	mat.MulGroupedTransAAcc(wg, lastX, xLive, geff, gLive, n)
	if gradIn == nil {
		return
	}
	wv := ts.wv[:0]
	for _, m := range act {
		wv = append(wv, m.Agent.online.Denses()[idx].W.Value)
	}
	ts.wv = wv
	var gate []mat.Live
	if act[0].Agent.online.Denses()[idx].GatedInput {
		gate = xLive
	}
	mat.MulGroupedTransB(gradIn, geff, gLive, n, wv, gate, accumulate)
}

// liveBands returns n unscanned live sets, one per member band, out of
// *store: the caller has just rewritten the activation they belong to.
func liveBands(store *[]mat.Live, n int) []mat.Live {
	if cap(*store) < n {
		*store = make([]mat.Live, n)
	}
	ls := (*store)[:n]
	for i := range ls {
		ls[i].Reset()
	}
	return ls
}

// stackedBackward replicates Network.Backward for every member band
// simultaneously: value streams, centred advantage gradients with the
// 1/K rescale into the shared advantage hidden, the 1/D rescale, and
// the trunk in reverse through each member's dropout masks — every
// per-band op in the member's exact solo order, every GEMM grouped
// block-diagonally.
func (p *AgentPool) stackedBackward(act []*PooledAgent, ws *stackWS, ts *trainStack, n int) {
	spec := p.spec
	rows := len(act) * n
	T := len(spec.SharedHidden)
	K := float64(spec.Agents)
	D := float64(len(spec.Dims))
	numValues := spec.Agents
	if spec.SharedValue {
		numValues = 1
	}
	z := ts.z
	ts.sharedGrad.Zero()

	// Value streams: dV[b] = Σ_d Σ_a gradQ[k][d][b][a]; with SharedValue
	// the single stream accumulates every agent's gradient.
	valueStream := func(v int) {
		p.groupedDenseBackward(act, ts, T+2*v+1, ts.valHid[v], ts.valLive[v], nil, ts.gv, nil, ts.gBH1, false, n)
		p.groupedDenseBackward(act, ts, T+2*v, z, ts.zLive, ts.valHid[v], ts.gBH1, ts.gBH2, ts.sharedGrad, true, n)
	}
	if spec.SharedValue {
		gv := ts.gv
		gv.Zero()
		for k := 0; k < spec.Agents; k++ {
			for d := range spec.Dims {
				g := ts.gradQ[k][d]
				for r := 0; r < rows; r++ {
					gv.Data[r] += mat.Sum(g.Row(r))
				}
			}
		}
		valueStream(0)
	} else {
		for k := 0; k < spec.Agents; k++ {
			gv := ts.gv
			gv.Zero()
			for d := range spec.Dims {
				g := ts.gradQ[k][d]
				for r := 0; r < rows; r++ {
					gv.Data[r] += mat.Sum(g.Row(r))
				}
			}
			valueStream(k)
		}
	}

	// Advantage modules: centred gradients, heads in agent order, 1/K
	// before the shared hidden layer.
	for d := range spec.Dims {
		combined := ts.combined
		combined.Zero()
		for k := 0; k < spec.Agents; k++ {
			g := ts.gradQ[k][d]
			centered := ts.centered[d]
			g.RowMeansInto(ws.means)
			for r := 0; r < rows; r++ {
				grow := g.Row(r)
				crow := centered.Row(r)
				for j := range crow {
					crow[j] = grow[j] - ws.means[r]
				}
			}
			p.groupedDenseBackward(act, ts, T+2*numValues+len(spec.Dims)+k*len(spec.Dims)+d,
				ws.advHid[d], ts.advLive[d], nil, centered, nil, combined, true, n)
		}
		combined.Scale(1 / K)
		p.groupedDenseBackward(act, ts, T+2*numValues+d, z, ts.zLive, ws.advHid[d], combined, ts.gBH2, ts.sharedGrad, true, n)
	}

	ts.sharedGrad.Scale(1 / D)

	// Trunk in reverse: dropout mask, then the fused DenseReLU backward.
	g := ts.sharedGrad
	for li := T - 1; li >= 0; li-- {
		if spec.Dropout > 0 {
			mat.Hadamard(ts.gTrunk[li], g, ts.mask[li])
			g = ts.gTrunk[li]
		}
		lastX := ws.x
		if li > 0 {
			lastX = ws.trunk[li-1]
			if spec.Dropout > 0 {
				lastX = ts.drop[li-1]
			}
		}
		var gradIn *mat.Matrix
		if li > 0 {
			gradIn = ts.gTrunkIn[li]
		}
		p.groupedDenseBackward(act, ts, li, lastX, ts.xLive[li], ws.trunk[li], g, ts.gmTrunk[li], gradIn, false, n)
		g = gradIn
	}
}

// bandOutput views member band s (rows [s·n, (s+1)·n)) of a stacked
// Output.
func bandOutput(out *Output, s, n int) *Output {
	Q := make([][]*mat.Matrix, len(out.Q))
	for k := range out.Q {
		Q[k] = make([]*mat.Matrix, len(out.Q[k]))
		for d := range out.Q[k] {
			Q[k][d] = out.Q[k][d].RowsView(s*n, (s+1)*n)
		}
	}
	return &Output{Q: Q}
}

// bandGradQ views member band s of the stacked loss gradient, in the
// [K][D] shape trainLossGrad fills.
func bandGradQ(gradQ [][]*mat.Matrix, s, n int) [][]*mat.Matrix {
	Q := make([][]*mat.Matrix, len(gradQ))
	for k := range gradQ {
		Q[k] = make([]*mat.Matrix, len(gradQ[k]))
		for d := range gradQ[k] {
			Q[k][d] = gradQ[k][d].RowsView(s*n, (s+1)*n)
		}
	}
	return Q
}

// Pools is a registry of agent pools keyed by architecture, so fleet
// engines whose nodes run differently shaped managers (daemon
// membership generations, heterogeneous clusters) still share a pool —
// and its arena and pack caches — between same-shaped agents.
type Pools struct {
	mu sync.Mutex
	m  map[string]*AgentPool
}

// NewPools returns an empty registry.
func NewPools() *Pools { return &Pools{m: make(map[string]*AgentPool)} }

// For returns the pool for the agent config's architecture signature,
// creating it on first use.
func (ps *Pools) For(cfg AgentConfig) *AgentPool {
	cfg = cfg.Defaults()
	key := fmt.Sprintf("%d|%d|%v|%v|%d|%g|%t|b%d",
		cfg.Spec.StateDim, cfg.Spec.Agents, cfg.Spec.Dims, cfg.Spec.SharedHidden,
		cfg.Spec.BranchHidden, cfg.Spec.Dropout, cfg.Spec.SharedValue, cfg.BatchSize)
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
