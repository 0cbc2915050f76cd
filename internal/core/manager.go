package core

import (
	"fmt"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// ServiceConfig is what Twig must know about one managed service: its
// QoS target, the profiled maximum load (used to express load as a
// fraction in the Eq. 2 power model) and the fitted power model itself.
type ServiceConfig struct {
	Name        string
	QoSTargetMs float64
	MaxLoadRPS  float64
	// Power is the fitted Eq. 2 model. When nil, a generic fallback
	// (per-core linear estimate) is used so Twig remains a drop-in
	// manager even before profiling.
	Power *PowerModel
}

// Config configures a Twig manager. NewManager fills the BDQ spec
// (state dimension, agents, action dimensions) automatically.
type Config struct {
	Services []ServiceConfig
	// NumCores is the size of the managed socket.
	NumCores int
	// MaxPowerW is the stress-microbenchmark power used to normalise
	// the power reward.
	MaxPowerW float64
	// Eta is the PMC smoothing window (Sec. III-B1; the paper uses 5).
	Eta int
	// Reward holds the Eq. 1 parameters.
	Reward RewardConfig
	// Agent carries the learning hyper-parameters; NewManager fills its
	// Spec's state dimension, agents and action dimensions.
	Agent bdq.AgentConfig
	// ManageCache adds a third action branch per agent that partitions
	// the LLC with Intel CAT-style way reservations — the extension the
	// paper anticipates in its D=3 memory-complexity example but could
	// not enable on its production servers.
	ManageCache bool
}

// DefaultConfig returns the paper's Twig configuration for the given
// services: η 5, Eq. 1's reward and the learner of Sec. IV
// (bdq.PaperAgent).
func DefaultConfig(services []ServiceConfig, numCores int, maxPowerW float64) Config {
	return Config{
		Services:  services,
		NumCores:  numCores,
		MaxPowerW: maxPowerW,
		Eta:       5,
		Reward:    DefaultRewardConfig(),
		Agent:     bdq.PaperAgent(),
	}
}

// Manager is the Twig task manager: system monitor + multi-agent BDQ
// learning agent + mapper module, run as one Decide call per monitoring
// interval (Algorithm 1). It implements ctrl.Controller; Twig-S is a
// Manager over one service, Twig-C over several.
type Manager struct {
	cfg     Config
	monitor *Monitor
	agent   *bdq.Agent
	mapper  *Mapper

	// pag is non-nil when the manager's agent is a member of a shared
	// AgentPool: learning and action selection are then queued and run in
	// the pool's flush. Checkpointing still goes through agent, which the
	// pool shares.
	pag *bdq.PooledAgent

	prevState   []float64
	prevActions [][]int
	prevReqs    []Request
	lastAsg     sim.Assignment

	// pendState carries the observed state between PrepareDecide and
	// FinishDecide; pendTrained records whether a transition was queued
	// this interval (so lastLoss mirrors the per-agent path exactly).
	pendState   []float64
	pendTrained bool
	pending     bool

	steps      int
	migrations int
	lastLoss   float64
}

// NewManager builds a Twig manager over the given managed cores.
func NewManager(cfg Config, managedCores []int) *Manager {
	if len(cfg.Services) == 0 {
		panic("core: no services configured")
	}
	if cfg.Eta <= 0 {
		cfg.Eta = 5
	}
	if cfg.Reward == (RewardConfig{}) {
		cfg.Reward = DefaultRewardConfig()
	}
	if cfg.NumCores == 0 {
		cfg.NumCores = len(managedCores)
	}
	k := len(cfg.Services)
	dims := []int{cfg.NumCores, platform.NumFreqSteps}
	if cfg.ManageCache {
		dims = append(dims, platform.NumCacheWays)
	}
	cfg.Agent.Spec = bdq.Spec{
		StateDim:     k * int(pmc.NumCounters),
		Agents:       k,
		Dims:         dims,
		SharedHidden: cfg.Agent.Spec.SharedHidden,
		BranchHidden: cfg.Agent.Spec.BranchHidden,
		Dropout:      cfg.Agent.Spec.Dropout,
		SharedValue:  cfg.Agent.Spec.SharedValue,
	}
	return &Manager{
		cfg:     cfg,
		monitor: NewMonitor(k, cfg.Eta),
		agent:   bdq.NewAgent(cfg.Agent),
		mapper:  NewMapper(managedCores),
	}
}

// NewManagerPooled builds a manager whose agent joins the registry's
// shared pool: its learning and selection are queued for the fleet's one
// flush per interval, and run there through the agent's own Observe and
// selection. Behaviour is bit-identical to NewManager; only when the
// work runs changes. The caller must Close the manager when discarding
// it so the pool stops holding its agent.
func NewManagerPooled(cfg Config, managedCores []int, pools *bdq.Pools) *Manager {
	m := NewManager(cfg, managedCores)
	if pools != nil {
		m.pag = pools.For(m.cfg.Agent).Attach(m.agent)
	}
	return m
}

// Close takes the manager's agent out of its pool (no-op for unpooled
// managers). The agent is untouched and remains checkpointable.
// Implements ctrl.Closer.
func (m *Manager) Close() {
	if m.pag != nil {
		m.pag.Close()
		m.pag = nil
	}
}

// Pooled reports whether the manager runs through a shared AgentPool.
func (m *Manager) Pooled() bool { return m.pag != nil }

// Name implements ctrl.Controller.
func (m *Manager) Name() string {
	if len(m.cfg.Services) == 1 {
		return "twig-s"
	}
	return "twig-c"
}

// Agent exposes the learning agent (experiments inspect ε and step
// counts).
func (m *Manager) Agent() *bdq.Agent { return m.agent }

// Migrations returns the cumulative count of per-service core-set
// changes, the oscillation metric of Sec. V-B1.
func (m *Manager) Migrations() int { return m.migrations }

// LastLoss returns the most recent training minibatch loss.
func (m *Manager) LastLoss() float64 { return m.lastLoss }

// Decide implements Algorithm 1 for one monitoring interval: observe the
// state s (smoothed PMCs), reward the previous action from the observed
// QoS and estimated per-service power, train, and emit the mapping for
// the next interval. Pooled managers route the learning and selection
// work through their AgentPool (one flush for this manager alone);
// fleet coordinators instead call PrepareDecide / FinishDecide around a
// single shared flush.
func (m *Manager) Decide(obs ctrl.Observation) sim.Assignment {
	m.PrepareDecide(obs)
	if m.pag != nil {
		m.pag.Pool().FlushStep()
	}
	return m.FinishDecide()
}

// PrepareDecide is the first half of Decide: observe the state, reward
// and enqueue the previous interval's transition, and enqueue this
// interval's action selection. For unpooled managers the learning step
// runs inline; the selection is deferred to FinishDecide either way.
// Implements ctrl.PhasedController.
func (m *Manager) PrepareDecide(obs ctrl.Observation) {
	if len(obs.Services) != len(m.cfg.Services) {
		panic(fmt.Sprintf("core: observation has %d services, manager %d",
			len(obs.Services), len(m.cfg.Services)))
	}
	if m.pending {
		panic("core: PrepareDecide called twice without FinishDecide")
	}
	samples := make([]pmc.Sample, len(obs.Services))
	for k, s := range obs.Services {
		samples[k] = s.NormPMCs
	}
	state := m.monitor.Observe(samples)

	m.pendTrained = false
	if m.prevState != nil {
		rewards := make([]float64, len(obs.Services))
		for k, s := range obs.Services {
			rewards[k] = m.rewardFor(k, s)
		}
		flat := make([]int, 0, len(m.prevActions)*2)
		for _, a := range m.prevActions {
			flat = append(flat, a...)
		}
		t := replay.Transition{
			State:     m.prevState,
			Actions:   flat,
			Rewards:   rewards,
			NextState: state,
		}
		if m.pag != nil {
			m.pag.QueueObserve(t)
			m.pendTrained = true
		} else {
			m.lastLoss = m.agent.Observe(t)
		}
	}
	if m.pag != nil {
		m.pag.QueueSelect(state, false)
	}
	m.pendState = state
	m.pending = true
}

// FinishDecide is the second half of Decide: collect the selected
// actions (from the pool flush, or inline for unpooled managers) and
// emit the next interval's assignment. Implements ctrl.PhasedController.
func (m *Manager) FinishDecide() sim.Assignment {
	if !m.pending {
		panic("core: FinishDecide without PrepareDecide")
	}
	m.pending = false
	state := m.pendState
	m.pendState = nil

	var actions [][]int
	if m.pag != nil {
		actions = m.pag.TakeActions()
		if m.pendTrained {
			m.lastLoss = m.pag.TakeLoss()
		}
	} else {
		actions = m.agent.SelectActions(state)
	}
	reqs := make([]Request, len(actions))
	for k, a := range actions {
		reqs[k] = Request{Cores: a[0] + 1, FreqGHz: platform.FreqForStep(a[1])}
		if m.cfg.ManageCache {
			reqs[k].CacheWays = a[2] + 1
		}
	}
	asg := m.mapper.Map(reqs)
	m.countMigrations(asg)

	m.prevState = state
	m.prevActions = actions
	m.prevReqs = reqs
	m.lastAsg = asg
	m.steps++
	return asg
}

// rewardFor computes Eq. 1 for service k given the interval outcome.
func (m *Manager) rewardFor(k int, s ctrl.ServiceObs) float64 {
	qosRatio := s.Tardiness()
	svc := m.cfg.Services[k]
	loadFrac := 0.0
	if svc.MaxLoadRPS > 0 {
		loadFrac = s.MeasuredRPS / svc.MaxLoadRPS
	}
	req := m.prevReqs[k]
	var est float64
	if svc.Power != nil {
		est = svc.Power.Estimate(loadFrac, req.Cores, req.FreqGHz)
	} else {
		// Fallback first-order estimate: ~1.5 W per core plus a small
		// frequency term, keeps Power_rew well-scaled before profiling.
		est = 1.5*float64(req.Cores) + 2*req.FreqGHz + 5*loadFrac
	}
	if est < 1 {
		est = 1
	}
	powerRew := m.cfg.MaxPowerW / est
	return m.cfg.Reward.Reward(qosRatio, powerRew)
}

func (m *Manager) countMigrations(asg sim.Assignment) {
	if m.lastAsg.PerService == nil {
		return
	}
	for k := range asg.PerService {
		if !sameCores(m.lastAsg.PerService[k].Cores, asg.PerService[k].Cores) {
			m.migrations++
		}
	}
}

func sameCores(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Transfer applies transfer learning (Sec. IV): the output layers of the
// BDQ are re-initialised, exploration restarts at the given ε-schedule
// step, and the monitor history is cleared. Call it after swapping in a
// new service (update the ServiceConfig first via SetService).
func (m *Manager) Transfer(restartStep int) {
	m.agent.Transfer(restartStep)
	m.monitor.Reset()
	m.prevState = nil
	m.prevActions = nil
}

// SetService replaces the configuration of service k (QoS target, max
// load, power model) when a new service is swapped onto the node.
func (m *Manager) SetService(k int, cfg ServiceConfig) {
	m.cfg.Services[k] = cfg
}

// CopyWeightsFrom seeds this manager's network with src's learned
// weights (the donor of a transfer; follow with Transfer).
func (m *Manager) CopyWeightsFrom(src *Manager) { m.agent.CopyWeightsFrom(src.agent) }
