// Package ctrl defines the narrow interface every task manager in this
// repository — Twig and the Heracles/Hipster/PARTIES/static baselines —
// implements, together with the observation each one receives every
// monitoring interval. Controllers see only what their real counterparts
// could: per-service tail latency (log-file interface), normalised PMCs
// (perfmon), measured socket power (RAPL) and their own previous
// decisions.
package ctrl

import (
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// ServiceObs is one service's view for the interval that just finished.
type ServiceObs struct {
	// P99Ms is the measured 99th-percentile latency.
	P99Ms float64
	// QoSTargetMs is the service's tail-latency target.
	QoSTargetMs float64
	// MeasuredRPS is the observed completion throughput.
	MeasuredRPS float64
	// MaxLoadRPS is the profiled saturation load (known to managers
	// that bucket load, such as Hipster).
	MaxLoadRPS float64
	// NormPMCs are the feature-scaled Table-I counters.
	NormPMCs pmc.Sample
	// QueueGrowing hints that the service is falling behind (visible in
	// the log as rising latencies).
	QueueGrowing bool
}

// Observation is the system view for one monitoring interval.
type Observation struct {
	// Time is the interval index (seconds since experiment start).
	Time int
	// Services holds one entry per managed service.
	Services []ServiceObs
	// PowerW is the measured socket power.
	PowerW float64
}

// Controller decides the next interval's resource assignment from the
// current observation. Decide is called once per monitoring interval.
type Controller interface {
	Name() string
	Decide(obs Observation) sim.Assignment
}

// PhasedController is an optional Controller extension for fleet-level
// flushes: a coordinator that drives several controllers per tick may
// split each Decide into PrepareDecide (observe + enqueue learning and
// action-selection work) and FinishDecide (collect the selected actions
// and emit the assignment), with one shared flush — e.g. a
// bdq.AgentPool's over every controller's agent — in between.
// PrepareDecide/FinishDecide must compose to exactly Decide: calling
// them around a flush yields the bit-identical assignment and learning
// trajectory.
type PhasedController interface {
	Controller
	PrepareDecide(obs Observation)
	FinishDecide() sim.Assignment
}

// Closer is an optional Controller extension for controllers registered
// with something that outlives them (a Twig manager's agent is a member
// of a shared bdq.AgentPool). Coordinators call Close when a controller
// is discarded — rebuild, drain, eviction.
type Closer interface {
	Close()
}

// QoSMet reports whether a latency sample met its target.
func (s ServiceObs) QoSMet() bool { return s.P99Ms <= s.QoSTargetMs }

// Tardiness returns measured QoS over target (>1 means a violation).
func (s ServiceObs) Tardiness() float64 {
	if s.QoSTargetMs == 0 {
		return 0
	}
	return s.P99Ms / s.QoSTargetMs
}
