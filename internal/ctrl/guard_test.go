package ctrl

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/service"
)

type fakeCtrl struct {
	name   string
	decide func(Observation) sim.Assignment
}

func (f *fakeCtrl) Name() string                        { return f.name }
func (f *fakeCtrl) Decide(o Observation) sim.Assignment { return f.decide(o) }

var testCores = []int{18, 19, 20, 21}

func smallAlloc(o Observation) sim.Assignment {
	asg := sim.Assignment{PerService: make([]sim.Allocation, len(o.Services))}
	for i := range asg.PerService {
		asg.PerService[i] = sim.Allocation{Cores: []int{18}, FreqGHz: platform.MinFreqGHz}
	}
	return asg
}

func obs1(p99 float64) Observation {
	return Observation{Services: []ServiceObs{{P99Ms: p99, QoSTargetMs: 5, MeasuredRPS: 100}}, PowerW: 50}
}

func TestGuardName(t *testing.T) {
	g := NewGuard(&fakeCtrl{name: "twig-c", decide: smallAlloc}, DefaultGuardConfig(testCores))
	if g.Name() != "twig-c+guard" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestGuardBridgesThenPessimises(t *testing.T) {
	var seen []float64
	inner := &fakeCtrl{name: "probe", decide: func(o Observation) sim.Assignment {
		seen = append(seen, o.Services[0].P99Ms)
		return smallAlloc(o)
	}}
	cfg := DefaultGuardConfig(testCores)
	cfg.MaxStaleS = 2
	g := NewGuard(inner, cfg)

	g.Decide(obs1(3)) // good sample
	for i := 0; i < 4; i++ {
		g.Decide(obs1(math.NaN()))
	}
	want := []float64{3, 3, 3, 1.25 * 5, 1.25 * 5}
	if len(seen) != len(want) {
		t.Fatalf("inner saw %d obs", len(seen))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("interval %d: inner saw p99 %v, want %v", i, seen[i], want[i])
		}
	}
	h := g.Health()
	if h.ObsRepaired != 4 || h.StaleExceeded != 2 {
		t.Fatalf("health %+v", h)
	}
}

func TestGuardSanitisesPMCsAndPower(t *testing.T) {
	var got Observation
	inner := &fakeCtrl{name: "probe", decide: func(o Observation) sim.Assignment {
		got = o
		return smallAlloc(o)
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))

	good := obs1(3)
	good.Services[0].NormPMCs[0] = 0.4
	g.Decide(good)

	bad := obs1(3)
	bad.Services[0].NormPMCs[0] = math.NaN()
	bad.Services[0].NormPMCs[1] = 7 // over the normalised ceiling
	bad.Services[0].MeasuredRPS = math.Inf(1)
	bad.PowerW = math.NaN()
	g.Decide(bad)

	s := got.Services[0]
	if s.NormPMCs[0] != 0.4 {
		t.Fatalf("NaN counter not bridged: %v", s.NormPMCs[0])
	}
	if s.NormPMCs[1] != 1 {
		t.Fatalf("counter not clamped: %v", s.NormPMCs[1])
	}
	if s.MeasuredRPS != 100 {
		t.Fatalf("RPS not bridged: %v", s.MeasuredRPS)
	}
	if got.PowerW != 50 {
		t.Fatalf("power not bridged: %v", got.PowerW)
	}
}

func TestGuardRecoversPanicToSafeAssignment(t *testing.T) {
	inner := &fakeCtrl{name: "bomb", decide: func(o Observation) sim.Assignment {
		panic("controller bug")
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))
	asg := g.Decide(obs1(3))
	if len(asg.PerService) != 1 {
		t.Fatal("shape")
	}
	if len(asg.PerService[0].Cores) != len(testCores) || asg.PerService[0].FreqGHz != platform.MaxFreqGHz {
		t.Fatalf("fallback not max allocation: %+v", asg.PerService[0])
	}
	h := g.Health()
	if h.PanicsRecovered != 1 || h.FallbackIntervals != 1 {
		t.Fatalf("health %+v", h)
	}
}

func TestGuardClampsActions(t *testing.T) {
	inner := &fakeCtrl{name: "rogue", decide: func(o Observation) sim.Assignment {
		return sim.Assignment{
			PerService: []sim.Allocation{{
				Cores:     []int{99, 18, 18, -1},
				FreqGHz:   5.0,
				CacheWays: 99,
			}},
			IdleFreqGHz: math.NaN(),
		}
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))
	asg := g.Decide(obs1(3))
	al := asg.PerService[0]
	if len(al.Cores) != 1 || al.Cores[0] != 18 {
		t.Fatalf("cores = %v", al.Cores)
	}
	if al.FreqGHz != platform.MaxFreqGHz {
		t.Fatalf("freq = %v", al.FreqGHz)
	}
	if al.CacheWays != platform.NumCacheWays {
		t.Fatalf("ways = %v", al.CacheWays)
	}
	if asg.IdleFreqGHz != platform.MaxFreqGHz {
		t.Fatalf("idle freq = %v", asg.IdleFreqGHz)
	}
	if g.Health().ActionsClamped == 0 {
		t.Fatal("clamp not counted")
	}
}

// The duplicate filter is scratch the guard owns: it must read empty for
// every service and every decision, and the cores handed out must be the
// caller's to keep — not the inner controller's slice, not the scratch.
func TestGuardValidateScratchAndFreshCores(t *testing.T) {
	shared := []int{19, 18, 19, 7}
	inner := &fakeCtrl{name: "dup", decide: func(o Observation) sim.Assignment {
		return sim.Assignment{PerService: []sim.Allocation{
			{Cores: shared, FreqGHz: 1.5},
			{Cores: shared, FreqGHz: 1.5},
		}}
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))
	obs := Observation{Services: []ServiceObs{{P99Ms: 3, QoSTargetMs: 5}, {P99Ms: 3, QoSTargetMs: 5}}, PowerW: 50}
	var kept [][]int
	for round := 0; round < 3; round++ {
		asg := g.Decide(obs)
		for i, al := range asg.PerService {
			if len(al.Cores) != 2 || al.Cores[0] != 19 || al.Cores[1] != 18 {
				t.Fatalf("round %d service %d: cores %v, want [19 18]", round, i, al.Cores)
			}
			kept = append(kept, al.Cores)
			al.Cores[0] = -5 // a retained assignment is the holder's to scribble
		}
	}
	if shared[0] != 19 {
		t.Fatal("guard handed out the inner controller's slice")
	}
	for i, cores := range kept {
		if cores[0] != -5 || cores[1] != 18 {
			t.Fatalf("retained cores %d changed under their holder: %v", i, cores)
		}
	}
}

func TestGuardFillsEmptyAllocation(t *testing.T) {
	inner := &fakeCtrl{name: "empty", decide: func(o Observation) sim.Assignment {
		return sim.Assignment{PerService: []sim.Allocation{{FreqGHz: 1.5}}}
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))
	asg := g.Decide(obs1(3))
	if len(asg.PerService[0].Cores) != len(testCores) {
		t.Fatalf("empty allocation not widened: %v", asg.PerService[0].Cores)
	}
}

func TestGuardRejectsWrongShape(t *testing.T) {
	inner := &fakeCtrl{name: "short", decide: func(o Observation) sim.Assignment {
		return sim.Assignment{} // zero services for a one-service observation
	}}
	g := NewGuard(inner, DefaultGuardConfig(testCores))
	asg := g.Decide(obs1(3))
	if len(asg.PerService) != 1 || len(asg.PerService[0].Cores) != len(testCores) {
		t.Fatalf("wrong-shape decision not replaced: %+v", asg)
	}
}

func TestGuardBreakerTripsAndResets(t *testing.T) {
	inner := &fakeCtrl{name: "meek", decide: smallAlloc}
	cfg := DefaultGuardConfig(testCores)
	cfg.BreakerK = 3
	cfg.BreakerResetR = 2
	g := NewGuard(inner, cfg)

	escalated := func(asg sim.Assignment) bool {
		return len(asg.PerService[0].Cores) == len(testCores) &&
			asg.PerService[0].FreqGHz == platform.MaxFreqGHz
	}

	// Two violations: not yet tripped.
	for i := 0; i < 2; i++ {
		if escalated(g.Decide(obs1(10))) {
			t.Fatalf("breaker tripped after %d violations", i+1)
		}
	}
	// Third consecutive violation trips it.
	if !escalated(g.Decide(obs1(10))) {
		t.Fatal("breaker did not trip after K violations")
	}
	// One met interval is not enough to reset.
	if !escalated(g.Decide(obs1(1))) {
		t.Fatal("breaker reset too eagerly")
	}
	// Second consecutive met interval hands control back.
	if escalated(g.Decide(obs1(1))) {
		t.Fatal("breaker did not reset after R met intervals")
	}
	h := g.Health()
	if h.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", h.BreakerTrips)
	}
	if h.BreakerIntervals != 2 {
		t.Fatalf("escalated intervals = %d, want 2", h.BreakerIntervals)
	}
}

func TestGuardOutputAlwaysValid(t *testing.T) {
	// Whatever garbage the inner controller emits, the simulator must
	// accept the guarded assignment.
	garbage := []func(Observation) sim.Assignment{
		func(o Observation) sim.Assignment { panic("boom") },
		func(o Observation) sim.Assignment { return sim.Assignment{} },
		func(o Observation) sim.Assignment {
			return sim.Assignment{PerService: []sim.Allocation{{Cores: []int{-5}, FreqGHz: math.Inf(1)}}}
		},
	}
	srv := sim.NewServer(sim.DefaultConfig(), []sim.ServiceSpec{
		{Profile: service.MustLookup("masstree"), QoSTargetMs: 5, Seed: 1},
	})
	for gi, dec := range garbage {
		g := NewGuard(&fakeCtrl{name: "g", decide: dec}, DefaultGuardConfig(srv.ManagedCores()))
		asg := g.Decide(obs1(3))
		if err := srv.Validate(asg, []float64{100}); err != nil {
			t.Fatalf("garbage %d: guarded assignment rejected: %v", gi, err)
		}
	}
}

// On a capped SKU the guard works in the server's DVFS range, not the
// reference platform's: an over-range decision is clamped (and counted),
// and neither the panic fallback nor the breaker escalates past the cap.
func TestGuardHonoursCappedSKU(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Platform = platform.Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	cfg.ManagedSocket = 0
	srv := sim.NewServer(cfg, []sim.ServiceSpec{
		{Profile: service.MustLookup("masstree"), QoSTargetMs: 5, Seed: 1},
	})
	lo, hi := srv.FreqRange()
	if lo != 1.2 || hi != 1.6 {
		t.Fatalf("edge SKU range [%v,%v]", lo, hi)
	}
	inRange := func(what string, asg sim.Assignment) {
		t.Helper()
		for i, al := range asg.PerService {
			if al.FreqGHz < lo || al.FreqGHz > hi {
				t.Fatalf("%s: service %d at %v GHz, outside [%v,%v]", what, i, al.FreqGHz, lo, hi)
			}
		}
		if f := asg.IdleFreqGHz; f != 0 && (f < lo || f > hi) {
			t.Fatalf("%s: idle cores at %v GHz, outside [%v,%v]", what, f, lo, hi)
		}
	}

	decisions := map[string]func(Observation) sim.Assignment{
		"1.8 GHz decision": func(o Observation) sim.Assignment {
			return sim.Assignment{PerService: []sim.Allocation{{Cores: srv.ManagedCores()[:2], FreqGHz: 1.8}}, IdleFreqGHz: 2.0}
		},
		"panic":       func(Observation) sim.Assignment { panic("boom") },
		"wrong shape": func(Observation) sim.Assignment { return sim.Assignment{} },
	}
	for name, dec := range decisions {
		g := NewGuard(&fakeCtrl{name: "g", decide: dec}, GuardConfigFor(srv))
		// Five violating intervals: the breaker trips on the third and
		// escalates the remaining two.
		for i := 0; i < 5; i++ {
			inRange(name, g.Decide(obs1(10)))
		}
		if g.Health().BreakerIntervals == 0 {
			t.Fatalf("%s: breaker never escalated", name)
		}
	}

	g := NewGuard(&fakeCtrl{name: "g", decide: decisions["1.8 GHz decision"]}, GuardConfigFor(srv))
	if asg := g.Decide(obs1(3)); asg.PerService[0].FreqGHz != hi || asg.IdleFreqGHz != hi {
		t.Fatalf("1.8 GHz decision not clamped to the cap: %+v", asg)
	}
	if got := g.Health().ActionsClamped; got != 1 {
		t.Fatalf("a 1.8 GHz decision on a 1.6 GHz SKU counted %d clamps, want 1", got)
	}

	// The reference SKU is what a config without a range means.
	ref := NewGuard(&fakeCtrl{name: "g", decide: decisions["1.8 GHz decision"]}, DefaultGuardConfig(testCores))
	if asg := ref.Decide(obs1(3)); asg.PerService[0].FreqGHz != 1.8 || ref.Health().ActionsClamped != 1 {
		// IdleFreqGHz 2.0 is in range; only the unmanaged cores are filtered.
		t.Fatalf("reference SKU: %+v, health %+v", asg, ref.Health())
	}
}
