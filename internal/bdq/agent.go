package bdq

import (
	"fmt"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/rng"
)

// TargetMode selects how the bootstrap target aggregates the branch
// Q-values of the next state.
type TargetMode int

const (
	// TargetMeanBranches averages the per-branch target Q-values, the
	// aggregation recommended by the BDQ paper. The default.
	TargetMeanBranches TargetMode = iota
	// TargetPerBranch bootstraps each branch from its own maximum.
	TargetPerBranch
)

// EpsilonSchedule is Twig's two-phase linear annealing: ε starts at
// Start, reaches Mid at MidStep and End at EndStep, then stays at End.
type EpsilonSchedule struct {
	Start, Mid, End  float64
	MidStep, EndStep int
}

// At returns ε at the given step.
func (e EpsilonSchedule) At(step int) float64 {
	switch {
	case e.MidStep <= 0:
		return e.End
	case step <= 0:
		return e.Start
	case step < e.MidStep:
		f := float64(step) / float64(e.MidStep)
		return e.Start + f*(e.Mid-e.Start)
	case step < e.EndStep:
		f := float64(step-e.MidStep) / float64(e.EndStep-e.MidStep)
		return e.Mid + f*(e.End-e.Mid)
	default:
		return e.End
	}
}

// AgentConfig configures a Q-learning agent around a multi-agent BDQ.
// Zero values select the paper's hyper-parameters via Defaults.
type AgentConfig struct {
	Spec Spec

	Gamma        float64
	LearningRate float64
	BatchSize    int
	TargetSync   int // online→target copy period, in training steps
	WarmupSteps  int // transitions stored before training starts
	// TrainPerStep is the number of gradient updates per Observe call
	// (1 by default; scaled-down experiment profiles use more to match
	// the paper's longer schedules).
	TrainPerStep   int
	ReplayCapacity int
	UsePER         bool
	PERAlpha       float64
	PERBeta0       float64
	PERAnnealSteps int
	Epsilon        EpsilonSchedule
	TargetMode     TargetMode
	Seed           int64
}

// PaperAgent is the learner of Sec. IV: 512/256 shared units, 128 per
// branch, dropout 0.5, minibatch 64, γ 0.99, target sync 150, one
// gradient update per interval, prioritised replay with β annealed over
// 25 000 steps, ε 1→0.1@10 000→0.01@25 000. Defaults fills the fields
// it leaves unset (Adam lr 0.0025, a 10⁶ buffer with α 0.6, β₀ 0.4).
func PaperAgent() AgentConfig {
	return AgentConfig{
		Spec:           Spec{SharedHidden: []int{512, 256}, BranchHidden: 128, Dropout: 0.5},
		Gamma:          0.99,
		BatchSize:      64,
		TargetSync:     150,
		TrainPerStep:   1,
		UsePER:         true,
		PERAnnealSteps: 25_000,
		Epsilon:        EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 10_000, EndStep: 25_000},
	}
}

// QuickAgent is the scaled-down learner the quick experiment scale, the
// daemon and twig.QuickConfig run: a 64/48 trunk, 32-unit branches, no
// dropout, γ 0.9, minibatch 32, three updates per interval, target sync
// 100, β annealed over 5 000 steps and ε compressed ~6×. Like PaperAgent
// it holds only the fields it sets, so Defaults derives WarmupSteps from
// whatever BatchSize a copy ends up with.
func QuickAgent() AgentConfig {
	return AgentConfig{
		Spec:           Spec{SharedHidden: []int{64, 48}, BranchHidden: 32},
		Gamma:          0.9,
		BatchSize:      32,
		TargetSync:     100,
		TrainPerStep:   3,
		UsePER:         true,
		PERAnnealSteps: 5000,
		Epsilon:        EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 2000, EndStep: 3800},
	}
}

// Defaults fills unset fields from PaperAgent: an unset trunk
// (SharedHidden) takes the paper's whole network shape, dropout
// included. WarmupSteps defaults to BatchSize; the Adam learning rate
// (0.0025) and the replay buffer (10⁶, α 0.6, β₀ 0.4) are the same at
// every profile.
func (c AgentConfig) Defaults() AgentConfig {
	if len(c.Spec.SharedHidden) == 0 {
		s := PaperAgent().Spec
		c.Spec.SharedHidden, c.Spec.BranchHidden, c.Spec.Dropout = s.SharedHidden, s.BranchHidden, s.Dropout
	}
	p := PaperAgent()
	if c.Gamma == 0 {
		c.Gamma = p.Gamma
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.0025
	}
	if c.BatchSize == 0 {
		c.BatchSize = p.BatchSize
	}
	if c.TargetSync == 0 {
		c.TargetSync = p.TargetSync
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = c.BatchSize
	}
	if c.TrainPerStep == 0 {
		c.TrainPerStep = p.TrainPerStep
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 1_000_000
	}
	if c.PERAlpha == 0 {
		c.PERAlpha = 0.6
	}
	if c.PERBeta0 == 0 {
		c.PERBeta0 = 0.4
	}
	if c.PERAnnealSteps == 0 {
		c.PERAnnealSteps = p.PERAnnealSteps
	}
	if c.Epsilon == (EpsilonSchedule{}) {
		c.Epsilon = p.Epsilon
	}
	return c
}

// Agent is the deep Q-learning agent of Algorithm 1: it selects branch
// actions ε-greedily, stores transitions, trains the online network from
// (prioritised) replay and periodically synchronises the target network.
type Agent struct {
	cfg    AgentConfig
	online *Network
	target *Network
	buffer replay.Buffer
	opt    *nn.Adam
	rng    *rng.Rand

	step       int // environment steps (action selections)
	trainSteps int // gradient updates

	greedyState *mat.Matrix // reusable 1×StateDim input for greedy/QValues
	actions     [2][][]int  // selection results, double-buffered (see SelectActions)
	nextActions int         // the buffer the next selection writes
	train       *trainWS    // reusable TrainStep scratch (BatchSize rows)
}

// trainWS is the per-agent TrainStep scratch. BatchSize is constant for
// an agent's lifetime, so one lazily built set of buffers makes every
// steady-state training step allocation-free.
type trainWS struct {
	batch  replay.Batch
	states *mat.Matrix
	next   *mat.Matrix
	argmax [][][]int   // [K][D][batch] online-net action selections on s′
	y      [][]float64 // [K][batch] bootstrap targets
	gradQ  [][]*mat.Matrix
	tdErr  []float64
}

func (a *Agent) trainWorkspace() *trainWS {
	if a.train != nil {
		return a.train
	}
	spec := a.cfg.Spec
	K, D, n := spec.Agents, len(spec.Dims), a.cfg.BatchSize
	ws := &trainWS{
		states: mat.New(n, spec.StateDim),
		next:   mat.New(n, spec.StateDim),
		argmax: make([][][]int, K),
		y:      make([][]float64, K),
		gradQ:  make([][]*mat.Matrix, K),
		tdErr:  make([]float64, n),
	}
	for k := 0; k < K; k++ {
		ws.argmax[k] = make([][]int, D)
		ws.gradQ[k] = make([]*mat.Matrix, D)
		ws.y[k] = make([]float64, n)
		for d := 0; d < D; d++ {
			ws.argmax[k][d] = make([]int, n)
			ws.gradQ[k][d] = mat.New(n, spec.Dims[d])
		}
	}
	a.train = ws
	return ws
}

// NewAgent constructs an agent; cfg is completed with Defaults first.
func NewAgent(cfg AgentConfig) *Agent {
	cfg = cfg.Defaults()
	r := rng.New(cfg.Seed)
	online := NewNetwork(cfg.Spec, r.Rand)
	target := NewNetwork(cfg.Spec, r.Rand)
	target.CopyValuesFrom(online)
	opt := nn.NewAdam(cfg.LearningRate)
	online.SetOptimizer(opt) // the online network trains, the target never does
	var buf replay.Buffer
	if cfg.UsePER {
		buf = replay.NewPrioritized(cfg.ReplayCapacity, cfg.PERAlpha, cfg.PERBeta0, cfg.PERAnnealSteps)
	} else {
		buf = replay.NewUniform(cfg.ReplayCapacity)
	}
	return &Agent{cfg: cfg, online: online, target: target, buffer: buf, opt: opt, rng: r}
}

// Config returns the (defaulted) configuration.
func (a *Agent) Config() AgentConfig { return a.cfg }

// Online exposes the online network (used by experiments that inspect
// parameter counts or persist weights).
func (a *Agent) Online() *Network { return a.online }

// Epsilon returns the exploration rate at the current step.
func (a *Agent) Epsilon() float64 { return a.cfg.Epsilon.At(a.step) }

// Step returns the number of environment steps taken so far.
func (a *Agent) Step() int { return a.step }

// SelectActions chooses one action per agent and dimension ε-greedily:
// each branch independently explores with probability ε, as in
// action-branching architectures. The environment step counter advances.
//
// The returned slices are the agent's own storage, double-buffered: they
// stay valid through the agent's next selection (SelectActions or
// SelectGreedy) and are overwritten by the one after. Callers that hold
// actions longer must copy them.
func (a *Agent) SelectActions(state []float64) [][]int {
	acts := a.greedy(state)
	eps := a.Epsilon()
	a.step++
	for k := range acts {
		for d := range acts[k] {
			if a.rng.Float64() < eps {
				acts[k][d] = a.rng.Intn(a.cfg.Spec.Dims[d])
			}
		}
	}
	return acts
}

// SelectGreedy returns the pure-exploitation actions without advancing
// the step counter (used after the learning phase, per Sec. V). The
// returned slices live as long as SelectActions' do.
func (a *Agent) SelectGreedy(state []float64) [][]int { return a.greedy(state) }

// stateInput copies state into the agent's reusable 1×StateDim matrix.
func (a *Agent) stateInput(state []float64) *mat.Matrix {
	if len(state) != a.cfg.Spec.StateDim {
		panic(fmt.Sprintf("bdq: state dim %d != %d", len(state), a.cfg.Spec.StateDim))
	}
	if a.greedyState == nil {
		a.greedyState = mat.New(1, a.cfg.Spec.StateDim)
	}
	copy(a.greedyState.Data, state)
	return a.greedyState
}

// greedy writes each branch's argmax over the eval forward of state into
// the next of the agent's two action buffers (allocated on first use).
func (a *Agent) greedy(state []float64) [][]int {
	out := a.online.Forward(a.stateInput(state), false)
	acts := a.actions[a.nextActions]
	if acts == nil {
		acts = make([][]int, len(out.Q))
		for k := range acts {
			acts[k] = make([]int, len(out.Q[k]))
		}
		a.actions[a.nextActions] = acts
	}
	a.nextActions ^= 1
	for k := range acts {
		for d := range acts[k] {
			acts[k][d] = mat.Argmax(out.Q[k][d].Row(0))
		}
	}
	return acts
}

// QValues returns the online network's Q-values for a single state:
// out[agent][dim][action]. Useful for analysis and debugging.
func (a *Agent) QValues(state []float64) [][][]float64 {
	out := a.online.Forward(a.stateInput(state), false)
	qs := make([][][]float64, len(out.Q))
	for k := range out.Q {
		qs[k] = make([][]float64, len(out.Q[k]))
		for d := range out.Q[k] {
			qs[k][d] = mat.Clone(out.Q[k][d].Row(0))
		}
	}
	return qs
}

// Observe stores a transition and, once warm, performs one training step.
// It returns the minibatch loss (0 when no training happened).
func (a *Agent) Observe(t replay.Transition) float64 {
	if len(t.Actions) != a.cfg.Spec.Agents*len(a.cfg.Spec.Dims) {
		panic("bdq: transition action count mismatch")
	}
	if len(t.Rewards) != a.cfg.Spec.Agents {
		panic("bdq: transition reward count mismatch")
	}
	a.buffer.Add(t)
	if a.buffer.Len() < a.cfg.WarmupSteps {
		return 0
	}
	var loss float64
	for i := 0; i < a.cfg.TrainPerStep; i++ {
		loss = a.TrainStep()
	}
	return loss
}

// TrainStep samples a minibatch, forms per-branch TD targets with the
// target network (actions chosen by the online network — double DQN
// style), backpropagates the weighted squared error — which applies Adam
// layer by layer — and periodically syncs the target network. Returns the
// minibatch loss.
func (a *Agent) TrainStep() float64 {
	ws := a.trainWorkspace()
	n := a.trainSample()
	onlineNext := a.online.Forward(ws.next, false)
	a.trainArgmax(onlineNext, n)
	targetNext := a.target.Forward(ws.next, false)
	a.trainTargets(targetNext, n)
	loss := a.trainBackprop(targetNext, n)
	a.trainCommit()
	return loss
}

// trainSample draws the minibatch and fills the state/next-state
// matrices. Returns the batch row count (always BatchSize — SampleInto
// samples with replacement).
func (a *Agent) trainSample() int {
	ws := a.trainWorkspace()
	a.buffer.SampleInto(&ws.batch, a.cfg.BatchSize, a.rng.Rand)
	n := len(ws.batch.Transitions)
	for i, t := range ws.batch.Transitions {
		copy(ws.states.Row(i), t.State)
		copy(ws.next.Row(i), t.NextState)
	}
	return n
}

// trainArgmax extracts the online network's action selections on s′
// (double-DQN style) from an eval forward over ws.next.
func (a *Agent) trainArgmax(onlineNext *Output, n int) {
	spec := a.cfg.Spec
	ws := a.train
	for k := 0; k < spec.Agents; k++ {
		for d := range spec.Dims {
			for b := 0; b < n; b++ {
				ws.argmax[k][d][b] = mat.Argmax(onlineNext.Q[k][d].Row(b))
			}
		}
	}
}

// trainTargets forms the per-agent bootstrap values y[k][b] from the
// target network's eval forward over ws.next.
func (a *Agent) trainTargets(targetNext *Output, n int) {
	spec := a.cfg.Spec
	D := len(spec.Dims)
	ws := a.train
	for k := 0; k < spec.Agents; k++ {
		for b := 0; b < n; b++ {
			t := ws.batch.Transitions[b]
			if t.Done {
				ws.y[k][b] = t.Rewards[k]
				continue
			}
			var boot float64
			for d := 0; d < D; d++ {
				boot += targetNext.Q[k][d].At(b, ws.argmax[k][d][b])
			}
			if a.cfg.TargetMode == TargetMeanBranches {
				boot /= float64(D)
			}
			ws.y[k][b] = t.Rewards[k] + a.cfg.Gamma*boot
		}
	}
}

// trainBackprop forwards the current states in training mode, builds
// the gradient — only the taken action of each branch receives error —
// opens an optimiser step and backpropagates the gradient, which steps
// every layer as it goes, and returns the (normalised) minibatch loss.
//
// The train-mode forward overwrites the eval Output of the same batch
// size (both use the network's workspace); argmax was extracted first.
func (a *Agent) trainBackprop(targetNext *Output, n int) float64 {
	ws := a.train
	out := a.online.Forward(ws.states, true)
	loss := a.trainLossGrad(out, targetNext, n)
	a.opt.Open()
	a.online.Backward(ws.gradQ)
	return loss
}

// trainLossGrad builds the Q-gradient and TD errors from a train-mode
// forward over ws.states. ws.gradQ is overwritten; the (normalised)
// minibatch loss is returned.
func (a *Agent) trainLossGrad(out, targetNext *Output, n int) float64 {
	spec := a.cfg.Spec
	K, D := spec.Agents, len(spec.Dims)
	ws := a.train
	var loss float64
	for b := range ws.tdErr {
		ws.tdErr[b] = 0
	}
	denom := float64(n * K * D)
	for k := 0; k < K; k++ {
		for d := 0; d < D; d++ {
			g := ws.gradQ[k][d]
			g.Zero()
			for b := 0; b < n; b++ {
				act := ws.batch.Transitions[b].Actions[k*D+d]
				target := ws.y[k][b]
				if a.cfg.TargetMode == TargetPerBranch && !ws.batch.Transitions[b].Done {
					target = ws.batch.Transitions[b].Rewards[k] +
						a.cfg.Gamma*targetNext.Q[k][d].At(b, ws.argmax[k][d][b])
				}
				diff := out.Q[k][d].At(b, act) - target
				w := ws.batch.Weights[b]
				loss += 0.5 * w * diff * diff
				g.Set(b, act, w*diff/denom)
				if diff < 0 {
					ws.tdErr[b] -= diff / float64(K*D)
				} else {
					ws.tdErr[b] += diff / float64(K*D)
				}
			}
		}
	}
	return loss / denom
}

// trainCommit updates replay priorities and periodically syncs the
// target network.
func (a *Agent) trainCommit() {
	ws := a.train
	a.buffer.UpdatePriorities(ws.batch.Indices, ws.tdErr)

	a.trainSteps++
	if a.trainSteps%a.cfg.TargetSync == 0 {
		a.target.CopyValuesFrom(a.online)
	}
}

// Transfer applies transfer learning (Sec. IV): the output layers of both
// networks are re-initialised while the shared representation and hidden
// layers keep their trained weights, and exploration is restarted at the
// given step of the ε schedule.
func (a *Agent) Transfer(restartStep int) {
	a.online.ReinitOutputLayers(a.rng.Rand)
	a.target.CopyValuesFrom(a.online)
	a.step = restartStep
}

// CopyWeightsFrom takes src's online weights and syncs the target network
// to them: a trained donor handed over in memory (Figs. 8–9). Optimiser
// moments, replay and the ε position stay this agent's own.
// Architectures must match.
func (a *Agent) CopyWeightsFrom(src *Agent) {
	a.online.CopyValuesFrom(src.online)
	a.target.CopyValuesFrom(a.online)
}

// ReplayLen returns the number of stored transitions.
func (a *Agent) ReplayLen() int { return a.buffer.Len() }
