package ctrl

import (
	"fmt"
	"math"
	"slices"

	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// The guard's repair and breaker policy.
const (
	// maxStaleS bounds how many consecutive intervals a missing latency
	// sample may be bridged with the last good one before the guard
	// switches to a pessimistic estimate.
	maxStaleS = 5
	// pessimismFactor scales the QoS target to synthesise a latency once
	// staleness exceeds maxStaleS: the service is assumed to be violating
	// so that downstream logic (the inner controller, the breaker) reacts.
	pessimismFactor = 1.25
	// breakerK is the number of consecutive QoS violations after which
	// the circuit breaker escalates a service to maximum resources.
	breakerK = 3
	// breakerResetR is the number of consecutive met intervals required
	// before a tripped breaker hands control back to the inner controller.
	breakerResetR = 2
)

// GuardConfig says what the guard may actuate.
type GuardConfig struct {
	// ManagedCores is the set of core IDs any decision may use; cores
	// outside it are stripped from the inner controller's assignments.
	ManagedCores []int
	// MinFreqGHz and MaxFreqGHz are the DVFS range of the SKU the guard
	// actuates (sim.Server.FreqRange): decisions are clamped into it and
	// the fallback and breaker escalate to its maximum. Zero means the
	// reference platform's range.
	MinFreqGHz, MaxFreqGHz float64
}

// DefaultGuardConfig returns the guard settings for the given managed
// core set on the reference platform.
func DefaultGuardConfig(managed []int) GuardConfig {
	return GuardConfig{ManagedCores: append([]int(nil), managed...)}
}

// GuardConfigFor returns the guard settings for srv: its
// managed core set and its SKU's DVFS range.
func GuardConfigFor(srv *sim.Server) GuardConfig {
	cfg := DefaultGuardConfig(srv.ManagedCores())
	cfg.MinFreqGHz, cfg.MaxFreqGHz = srv.FreqRange()
	return cfg
}

// GuardHealth counts every intervention the guard made. All counters are
// cumulative over the guard's lifetime.
type GuardHealth struct {
	// ObsRepaired counts observation fields (latency, PMCs, power)
	// replaced because they were missing or non-finite.
	ObsRepaired int
	// StaleExceeded counts intervals where a latency gap outlived
	// maxStaleS and the pessimistic estimate was substituted.
	StaleExceeded int
	// PanicsRecovered counts inner-controller panics converted into the
	// safe fallback assignment.
	PanicsRecovered int
	// ActionsClamped counts decisions repaired in place (cores filtered,
	// frequencies clamped, empty allocations filled).
	ActionsClamped int
	// FallbackIntervals counts intervals decided entirely by the safe
	// fallback rather than the inner controller.
	FallbackIntervals int
	// BreakerTrips counts violation→escalation transitions;
	// BreakerIntervals counts intervals spent escalated.
	BreakerTrips     int
	BreakerIntervals int
}

// Guard wraps any Controller with the degraded-mode defenses of Sec.
// "Fault model" in DESIGN.md: observation sanitising, panic containment,
// action validation and a per-service QoS circuit breaker. A Guard is
// itself a Controller, so it drops into every existing harness.
type Guard struct {
	inner  Controller
	cfg    GuardConfig
	health GuardHealth

	// Per-service repair state, sized lazily from the first observation.
	lastGood []ServiceObs
	haveGood []bool
	staleFor []int
	// Breaker state.
	violStreak []int
	metStreak  []int
	tripped    []bool

	lastPowerW float64
	havePower  bool

	// managed[c] reports whether core c is in the managed set; seen is
	// validate's per-service duplicate filter over the same index range,
	// all false between uses.
	managed, seen []bool

	// Interval scratch, carrying nothing from one Decide to the next:
	// clean is the sanitised copy of the observation's services (no
	// controller keeps an observation), and kept holds the cores
	// validate keeps, service after service, until it copies them into
	// the assignment it returns.
	clean []ServiceObs
	kept  []int
}

// NewGuard wraps inner. The config's ManagedCores must be non-empty.
func NewGuard(inner Controller, cfg GuardConfig) *Guard {
	if len(cfg.ManagedCores) == 0 {
		panic("ctrl: guard needs a managed core set")
	}
	if cfg.MaxFreqGHz == 0 {
		cfg.MinFreqGHz, cfg.MaxFreqGHz = platform.MinFreqGHz, platform.MaxFreqGHz
	}
	if lo := slices.Min(cfg.ManagedCores); lo < 0 {
		panic(fmt.Sprintf("ctrl: guard managed core ID %d is negative", lo))
	}
	g := &Guard{inner: inner, cfg: cfg}
	g.managed = make([]bool, slices.Max(cfg.ManagedCores)+1)
	for _, c := range cfg.ManagedCores {
		g.managed[c] = true
	}
	g.seen = make([]bool, len(g.managed))
	return g
}

// Name labels runs with the wrapped controller's name.
func (g *Guard) Name() string { return g.inner.Name() + "+guard" }

// Health returns the cumulative intervention counters.
func (g *Guard) Health() GuardHealth { return g.health }

// BreakerEngaged reports whether the QoS circuit breaker currently
// holds service i escalated to maximum resources; false before the
// first Decide sizes the guard.
func (g *Guard) BreakerEngaged(i int) bool { return i < len(g.tripped) && g.tripped[i] }

// Decide sanitises the observation, runs the inner controller inside a
// panic boundary, advances the circuit breaker, then validates the
// decision and escalates every tripped service. The returned assignment
// always passes sim.Server.Validate and is the caller's to keep: two
// allocations, the PerService slice and one array that each service's
// cores are a capacity-capped sub-slice of, as core.Mapper.Map builds.
func (g *Guard) Decide(obs Observation) sim.Assignment {
	k := len(obs.Services)
	g.init(k)
	clean := g.sanitize(obs)

	asg, panicked := safeDecide(g.inner, wholeDecide, clean)
	g.breaker(clean)
	switch {
	case panicked:
		g.health.PanicsRecovered++
		g.health.FallbackIntervals++
		return g.fallback(k)
	case len(asg.PerService) != k:
		g.health.ActionsClamped++
		g.health.FallbackIntervals++
		return g.fallback(k)
	}
	return g.validate(asg)
}

func (g *Guard) init(k int) {
	if len(g.lastGood) == k {
		return
	}
	g.lastGood = make([]ServiceObs, k)
	g.haveGood = make([]bool, k)
	g.staleFor = make([]int, k)
	g.violStreak = make([]int, k)
	g.metStreak = make([]int, k)
	g.tripped = make([]bool, k)
}

// sanitize repairs missing or corrupt sensor readings so the inner
// controller always sees finite, plausible numbers.
func (g *Guard) sanitize(obs Observation) Observation {
	k := len(obs.Services)
	if cap(g.clean) < k {
		g.clean = make([]ServiceObs, k)
	}
	out := obs
	out.Services = g.clean[:k]
	copy(out.Services, obs.Services)

	if !isFinite(out.PowerW) || out.PowerW < 0 {
		g.health.ObsRepaired++
		if g.havePower {
			out.PowerW = g.lastPowerW
		} else {
			out.PowerW = 0
		}
	} else {
		g.lastPowerW = out.PowerW
		g.havePower = true
	}

	for i := range out.Services {
		s := &out.Services[i]

		// Latency: bridge short gaps with the last good sample, then
		// turn pessimistic so a long-dark service looks like a violator.
		if !isFinite(s.P99Ms) || s.P99Ms < 0 {
			g.health.ObsRepaired++
			g.staleFor[i]++
			if g.haveGood[i] && g.staleFor[i] <= maxStaleS {
				s.P99Ms = g.lastGood[i].P99Ms
			} else {
				g.health.StaleExceeded++
				s.P99Ms = pessimismFactor * s.QoSTargetMs
			}
		} else {
			g.staleFor[i] = 0
		}

		// Throughput: never negative or non-finite.
		if !isFinite(s.MeasuredRPS) || s.MeasuredRPS < 0 {
			g.health.ObsRepaired++
			if g.haveGood[i] {
				s.MeasuredRPS = g.lastGood[i].MeasuredRPS
			} else {
				s.MeasuredRPS = 0
			}
		}

		// PMC features: per-counter replacement with the last good value,
		// then clamp into the normalised [0,1] envelope.
		for c := range s.NormPMCs {
			v := s.NormPMCs[c]
			if !isFinite(v) || v < 0 {
				g.health.ObsRepaired++
				if g.haveGood[i] {
					v = g.lastGood[i].NormPMCs[c]
				} else {
					v = 0
				}
			}
			if v > 1 {
				v = 1
			}
			s.NormPMCs[c] = v
		}

		if g.staleFor[i] == 0 {
			g.lastGood[i] = *s
			g.haveGood[i] = true
		}
	}
	return out
}

// validate repairs the inner controller's decision, already of the
// right shape: cores are filtered to the managed set, empty
// allocations are widened to every managed core, and frequencies and
// cache ways are clamped into hardware range. A tripped service's
// decision is validated (and counted) like any other, then replaced by
// the breaker's escalation. The result is two allocations: its
// PerService slice, and one array the kept cores are copied into.
func (g *Guard) validate(asg sim.Assignment) sim.Assignment {
	out := sim.Assignment{
		PerService:  make([]sim.Allocation, len(asg.PerService)),
		IdleFreqGHz: asg.IdleFreqGHz,
	}
	clamped := false
	if out.IdleFreqGHz != 0 {
		fixed := g.clampFreq(out.IdleFreqGHz)
		if fixed != out.IdleFreqGHz {
			clamped = true
			out.IdleFreqGHz = fixed
		}
	}
	g.kept = g.kept[:0]
	total := 0
	for i, al := range asg.PerService {
		from := len(g.kept)
		for _, c := range al.Cores {
			if c >= 0 && c < len(g.managed) && g.managed[c] && !g.seen[c] {
				g.seen[c] = true
				g.kept = append(g.kept, c)
			}
		}
		cores := g.kept[from:]
		for _, c := range cores {
			g.seen[c] = false
		}
		if len(cores) != len(al.Cores) {
			clamped = true
		}
		if len(cores) == 0 {
			clamped = true
			cores = g.cfg.ManagedCores
		}
		freq := g.clampFreq(al.FreqGHz)
		if freq != al.FreqGHz {
			clamped = true
		}
		ways := al.CacheWays
		if ways < 0 {
			ways, clamped = 0, true
		} else if ways > platform.NumCacheWays {
			ways, clamped = platform.NumCacheWays, true
		}
		out.PerService[i] = sim.Allocation{Cores: cores, FreqGHz: freq, CacheWays: ways}
		if g.tripped[i] {
			out.PerService[i] = g.escalation(g.cfg.ManagedCores)
		}
		total += len(out.PerService[i].Cores)
	}
	if clamped {
		g.health.ActionsClamped++
	}

	// The cores still alias the guard's scratch and config: the caller
	// may keep what it is handed, so they move into one fresh array,
	// each service's capped at its own length.
	all := make([]int, total)
	for i := range out.PerService {
		al := &out.PerService[i]
		n := copy(all, al.Cores)
		al.Cores, all = all[:n:n], all[n:]
	}
	return out
}

// breaker advances the per-service QoS streaks: a service that has
// violated QoS for breakerK consecutive intervals trips, and stays
// tripped — escalated to every managed core at maximum frequency by
// validate or fallback — until breakerResetR consecutive met intervals.
func (g *Guard) breaker(obs Observation) {
	for i, s := range obs.Services {
		if s.QoSTargetMs > 0 && s.P99Ms > s.QoSTargetMs {
			g.violStreak[i]++
			g.metStreak[i] = 0
		} else {
			g.metStreak[i]++
			g.violStreak[i] = 0
		}
		if !g.tripped[i] && g.violStreak[i] >= breakerK {
			g.tripped[i] = true
			g.health.BreakerTrips++
		}
		if g.tripped[i] && g.metStreak[i] >= breakerResetR {
			g.tripped[i] = false
		}
		if g.tripped[i] {
			g.health.BreakerIntervals++
		}
	}
}

// escalation is a tripped service's allocation over cores, every
// managed core.
func (g *Guard) escalation(cores []int) sim.Allocation {
	return sim.Allocation{Cores: cores, FreqGHz: g.cfg.MaxFreqGHz, CacheWays: platform.NumCacheWays}
}

// fallback is the static maximum-resource assignment on the guard's
// SKU, with every tripped service escalated in place: its cores are
// already every managed core.
func (g *Guard) fallback(k int) sim.Assignment {
	asg := SafeAssignment(k, g.cfg.ManagedCores, g.cfg.MinFreqGHz, g.cfg.MaxFreqGHz)
	for i, al := range asg.PerService {
		if g.tripped[i] {
			asg.PerService[i] = g.escalation(al.Cores)
		}
	}
	return asg
}

// clampFreq forces f into the SKU's DVFS range (non-finite means max).
func (g *Guard) clampFreq(f float64) float64 {
	if !isFinite(f) {
		return g.cfg.MaxFreqGHz
	}
	return min(max(f, g.cfg.MinFreqGHz), g.cfg.MaxFreqGHz)
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
