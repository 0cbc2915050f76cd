package ctrl

import (
	"fmt"
	"math"
	"slices"

	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// GuardConfig tunes the resilient wrapper around a controller.
type GuardConfig struct {
	// ManagedCores is the set of core IDs any decision may use; cores
	// outside it are stripped from the inner controller's assignments.
	ManagedCores []int
	// MaxStaleS bounds how many consecutive intervals a missing latency
	// sample may be bridged with the last good one before the guard
	// switches to a pessimistic estimate.
	MaxStaleS int
	// PessimismFactor scales the QoS target to synthesise a latency once
	// staleness exceeds MaxStaleS: the service is assumed to be violating
	// so that downstream logic (the inner controller, the breaker) reacts.
	PessimismFactor float64
	// BreakerK is the number of consecutive QoS violations after which
	// the circuit breaker escalates a service to maximum resources.
	BreakerK int
	// BreakerResetR is the number of consecutive met intervals required
	// before a tripped breaker hands control back to the inner controller.
	BreakerResetR int
	// MinFreqGHz and MaxFreqGHz are the DVFS range of the SKU the guard
	// actuates (sim.Server.FreqRange): decisions are clamped into it and
	// the fallback and breaker escalate to its maximum. Zero means the
	// reference platform's range.
	MinFreqGHz, MaxFreqGHz float64
}

// DefaultGuardConfig returns the recommended guard settings for the
// given managed core set on the reference platform.
func DefaultGuardConfig(managed []int) GuardConfig {
	return GuardConfig{
		ManagedCores:    append([]int(nil), managed...),
		MaxStaleS:       5,
		PessimismFactor: 1.25,
		BreakerK:        3,
		BreakerResetR:   2,
	}
}

// GuardConfigFor returns the recommended guard settings for srv: its
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
	// MaxStaleS and the pessimistic estimate was substituted.
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
}

// NewGuard wraps inner. The config's ManagedCores must be non-empty;
// zero-valued tuning fields fall back to the defaults.
func NewGuard(inner Controller, cfg GuardConfig) *Guard {
	if len(cfg.ManagedCores) == 0 {
		panic("ctrl: guard needs a managed core set")
	}
	def := DefaultGuardConfig(cfg.ManagedCores)
	if cfg.MaxStaleS <= 0 {
		cfg.MaxStaleS = def.MaxStaleS
	}
	if cfg.PessimismFactor <= 1 {
		cfg.PessimismFactor = def.PessimismFactor
	}
	if cfg.BreakerK <= 0 {
		cfg.BreakerK = def.BreakerK
	}
	if cfg.BreakerResetR <= 0 {
		cfg.BreakerResetR = def.BreakerResetR
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

// BreakerEngaged reports, per service, whether the QoS circuit breaker
// currently holds the service escalated to maximum resources. The slice
// is a copy and is empty before the first Decide sizes the guard.
func (g *Guard) BreakerEngaged() []bool { return append([]bool(nil), g.tripped...) }

// Decide sanitises the observation, runs the inner controller inside a
// panic boundary, validates its decision and applies the circuit
// breaker. The returned assignment always passes sim.Server.Validate.
func (g *Guard) Decide(obs Observation) sim.Assignment {
	g.init(len(obs.Services))
	clean := g.sanitize(obs)

	asg, panicked := safeDecide(g.inner, wholeDecide, clean)
	if panicked {
		g.health.PanicsRecovered++
		g.health.FallbackIntervals++
		asg = g.fallback(len(obs.Services))
	} else {
		asg = g.validate(asg, len(obs.Services))
	}

	g.breaker(clean, &asg)
	return asg
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
	out := obs
	out.Services = append([]ServiceObs(nil), obs.Services...)

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
			if g.haveGood[i] && g.staleFor[i] <= g.cfg.MaxStaleS {
				s.P99Ms = g.lastGood[i].P99Ms
			} else {
				g.health.StaleExceeded++
				s.P99Ms = g.cfg.PessimismFactor * s.QoSTargetMs
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

// validate repairs a decision in place: wrong shape falls back entirely;
// otherwise cores are filtered to the managed set, empty allocations are
// widened to every managed core, and frequencies and cache ways are
// clamped into hardware range.
func (g *Guard) validate(asg sim.Assignment, k int) sim.Assignment {
	if len(asg.PerService) != k {
		g.health.ActionsClamped++
		g.health.FallbackIntervals++
		return g.fallback(k)
	}

	out := sim.Assignment{
		PerService:  make([]sim.Allocation, k),
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
	for i, al := range asg.PerService {
		// The kept cores go into a fresh slice: whoever receives the
		// assignment may retain it.
		cores := make([]int, 0, len(al.Cores))
		for _, c := range al.Cores {
			if c >= 0 && c < len(g.managed) && g.managed[c] && !g.seen[c] {
				g.seen[c] = true
				cores = append(cores, c)
			}
		}
		for _, c := range cores {
			g.seen[c] = false
		}
		if len(cores) != len(al.Cores) {
			clamped = true
		}
		if len(cores) == 0 {
			clamped = true
			cores = append([]int(nil), g.cfg.ManagedCores...)
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
	}
	if clamped {
		g.health.ActionsClamped++
	}
	return out
}

// breaker escalates any service that has violated QoS for BreakerK
// consecutive intervals to every managed core at maximum frequency, and
// holds it there until BreakerResetR consecutive met intervals.
func (g *Guard) breaker(obs Observation, asg *sim.Assignment) {
	for i, s := range obs.Services {
		if s.QoSTargetMs > 0 && s.P99Ms > s.QoSTargetMs {
			g.violStreak[i]++
			g.metStreak[i] = 0
		} else {
			g.metStreak[i]++
			g.violStreak[i] = 0
		}
		if !g.tripped[i] && g.violStreak[i] >= g.cfg.BreakerK {
			g.tripped[i] = true
			g.health.BreakerTrips++
		}
		if g.tripped[i] && g.metStreak[i] >= g.cfg.BreakerResetR {
			g.tripped[i] = false
		}
		if g.tripped[i] && i < len(asg.PerService) {
			g.health.BreakerIntervals++
			asg.PerService[i] = sim.Allocation{
				Cores:     append([]int(nil), g.cfg.ManagedCores...),
				FreqGHz:   g.cfg.MaxFreqGHz,
				CacheWays: platform.NumCacheWays,
			}
		}
	}
}

// fallback is the static maximum-resource assignment on the guard's SKU.
func (g *Guard) fallback(k int) sim.Assignment {
	return SafeAssignment(k, g.cfg.ManagedCores, g.cfg.MinFreqGHz, g.cfg.MaxFreqGHz)
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
