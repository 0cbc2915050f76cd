package baselines

import (
	"math/rand"
	"sort"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// HipsterConfig carries the knobs Sec. V-A fixes for the comparison:
// bucket size 4% (25 load buckets), learning rate 0.6, discount 0.9.
type HipsterConfig struct {
	BucketPct    float64 // load bucket width in percent of max load
	LearnPhaseS  int     // heuristic-driven phase length in intervals
	LearningRate float64
	Discount     float64
	Epsilon      float64 // exploration after the learning phase
	Seed         int64
}

// DefaultHipsterConfig returns the settings used in the paper's
// evaluation (learning phase 7500 s).
func DefaultHipsterConfig() HipsterConfig {
	return HipsterConfig{
		BucketPct:    4,
		LearnPhaseS:  7500,
		LearningRate: 0.6,
		Discount:     0.9,
		Epsilon:      0.05,
	}
}

// hipsterAction is one mapping configuration (cores + DVFS).
type hipsterAction struct {
	cores int
	freq  float64
}

// powerProxy orders configurations by increasing power: the heuristic's
// "increasing order of power efficiency" ladder.
func (a hipsterAction) powerProxy() float64 {
	return float64(a.cores) * (0.45*a.freq*a.freq*a.freq + 0.7*a.freq)
}

// Hipster is the hybrid task manager of Nishtala et al. (HPCA'17): a
// heuristic state machine walks a power-ordered ladder of mapping
// configurations during the learning phase while feeding a tabular
// Q-learner whose state is the quantised load; afterwards the Q-table
// drives decisions ε-greedily, falling back to the heuristic for unseen
// states. It manages a single LC service.
type Hipster struct {
	cfg     HipsterConfig
	cores   []int
	actions []hipsterAction
	q       [][]float64
	visited [][]bool
	rng     *rand.Rand

	cur        int // ladder position (heuristic state)
	prevBucket int
	prevAction int
	havePrev   bool
	step       int
}

// NewHipster builds the controller over the managed cores.
func NewHipster(cfg HipsterConfig, managedCores []int) *Hipster {
	if cfg.BucketPct <= 0 {
		cfg.BucketPct = 4
	}
	cp := append([]int(nil), managedCores...)
	sort.Ints(cp)
	h := &Hipster{cfg: cfg, cores: cp, rng: rand.New(rand.NewSource(cfg.Seed))}
	for c := 1; c <= len(cp); c++ {
		for s := 0; s < platform.NumFreqSteps; s++ {
			h.actions = append(h.actions, hipsterAction{cores: c, freq: platform.FreqForStep(s)})
		}
	}
	sort.Slice(h.actions, func(i, j int) bool {
		return h.actions[i].powerProxy() < h.actions[j].powerProxy()
	})
	buckets := h.numBuckets()
	h.q = make([][]float64, buckets)
	h.visited = make([][]bool, buckets)
	for b := range h.q {
		h.q[b] = make([]float64, len(h.actions))
		h.visited[b] = make([]bool, len(h.actions))
	}
	h.cur = len(h.actions) - 1 // start at the most generous config
	return h
}

func (h *Hipster) numBuckets() int { return int(100/h.cfg.BucketPct) + 1 }

// Name implements ctrl.Controller.
func (h *Hipster) Name() string { return "hipster" }

// QTableEntries reports the table size, the memory-complexity metric.
func (h *Hipster) QTableEntries() int { return h.numBuckets() * len(h.actions) }

func (h *Hipster) bucketOf(s ctrl.ServiceObs) int {
	if s.MaxLoadRPS <= 0 {
		return 0
	}
	pct := 100 * s.MeasuredRPS / s.MaxLoadRPS
	b := int(pct / h.cfg.BucketPct)
	if b < 0 {
		b = 0
	}
	if b >= h.numBuckets() {
		b = h.numBuckets() - 1
	}
	return b
}

// reward mirrors Hipster's QoS-gated power reward: cheap configurations
// earn more when the target is met; violations earn a large penalty
// scaled by how bad they were.
func (h *Hipster) reward(s ctrl.ServiceObs, action int) float64 {
	if s.QoSMet() {
		// Normalised power rank: cheapest action → ~1, most expensive → ~0.
		return 1 - float64(action)/float64(len(h.actions)-1)
	}
	r := -5 * s.Tardiness()
	if r < -50 {
		r = -50
	}
	return r
}

// Decide implements ctrl.Controller for a single LC service.
func (h *Hipster) Decide(obs ctrl.Observation) sim.Assignment {
	s := obs.Services[0]
	bucket := h.bucketOf(s)

	// Q-update for the previous decision.
	if h.havePrev {
		r := h.reward(s, h.prevAction)
		best := maxFloat(h.q[bucket])
		old := h.q[h.prevBucket][h.prevAction]
		h.q[h.prevBucket][h.prevAction] = old + h.cfg.LearningRate*(r+h.cfg.Discount*best-old)
		h.visited[h.prevBucket][h.prevAction] = true
	}

	var action int
	switch {
	case h.step < h.cfg.LearnPhaseS:
		action = h.heuristicStep(s)
	case !s.QoSMet():
		// Safety net: on a violation fall back to the heuristic, which
		// jumps to a more generous configuration.
		action = h.heuristicStep(s)
	case h.rng.Float64() < h.cfg.Epsilon:
		action = h.rng.Intn(len(h.actions))
		h.cur = action
	default:
		// Exploit the Q-table, but only over configurations that have
		// been tried for this load bucket; unexplored entries would
		// otherwise win with their optimistic zero value.
		action = -1
		bestQ := 0.0
		for a, visited := range h.visited[bucket] {
			if visited && (action < 0 || h.q[bucket][a] > bestQ) {
				action, bestQ = a, h.q[bucket][a]
			}
		}
		if action < 0 {
			action = h.heuristicStep(s)
		} else {
			h.cur = action
		}
	}

	h.prevBucket, h.prevAction, h.havePrev = bucket, action, true
	h.step++
	a := h.actions[action]
	return sim.Assignment{
		PerService:  []sim.Allocation{{Cores: append([]int(nil), h.cores[:a.cores]...), FreqGHz: a.freq}},
		IdleFreqGHz: platform.MinFreqGHz,
	}
}

// heuristicStep walks the power-ordered ladder: move to a more generous
// configuration when the tail latency is too close to (or beyond) the
// target, reclaim when there is ample slack.
func (h *Hipster) heuristicStep(s ctrl.ServiceObs) int {
	ratio := s.Tardiness()
	switch {
	case ratio > 1: // violating: jump up aggressively
		h.cur += len(h.actions) / 10
	case ratio > 0.85: // too close to the target
		h.cur += 3
	case ratio < 0.60: // large slack: reclaim one step
		h.cur--
	}
	if h.cur < 0 {
		h.cur = 0
	}
	if h.cur >= len(h.actions) {
		h.cur = len(h.actions) - 1
	}
	return h.cur
}

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
