package twig_test

import (
	"testing"

	"github.com/twig-sched/twig/twig"
)

// TestPublicAPIEndToEnd drives the documented control loop: build a
// server and a Twig-S manager, and step them together through the
// interval kernel without a fallback.
func TestPublicAPIEndToEnd(t *testing.T) {
	prof, err := twig.LookupProfile("masstree")
	if err != nil {
		t.Fatal(err)
	}
	cfg := twig.DefaultServerConfig()
	target := twig.CalibrateQoSTarget(prof, cfg, 30, 1)
	if target <= 0 {
		t.Fatalf("target = %v", target)
	}
	srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: prof, QoSTargetMs: target, Seed: 1}})
	mgr := twig.NewTwigS(twig.ServiceConfig{
		Name:        prof.Name,
		QoSTargetMs: target,
		MaxLoadRPS:  prof.MaxLoadRPS,
	}, srv.ManagedCores(), srv.MaxPowerW())

	loop := twig.NewLoop(srv, mgr)
	var pattern twig.LoadPattern = twig.FixedLoad(0.4 * prof.MaxLoadRPS)
	for ts := 0; ts < 50; ts++ {
		loop.Loads()[0] = pattern.RPS(ts)
		if _, out, err := loop.Step(); err != nil || out != 0 {
			t.Fatalf("t=%d: outcome %b, err %v", ts, out, err)
		}
	}
	if srv.Clock() != 50 {
		t.Fatalf("clock = %d", srv.Clock())
	}
	if srv.EnergyJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	if mgr.Agent().ReplayLen() == 0 {
		t.Fatal("manager did not learn")
	}
}

func TestPublicAPITwigCAndBaselines(t *testing.T) {
	a, _ := twig.LookupProfile("masstree")
	b, _ := twig.LookupProfile("xapian")
	cfg := twig.DefaultServerConfig()
	srv := twig.NewServer(cfg, []twig.ServiceSpec{
		{Profile: a, QoSTargetMs: 6, Seed: 1},
		{Profile: b, QoSTargetMs: 15, Seed: 2},
	})
	mgr := twig.NewTwigC([]twig.ServiceConfig{
		{Name: a.Name, QoSTargetMs: 6, MaxLoadRPS: a.MaxLoadRPS},
		{Name: b.Name, QoSTargetMs: 15, MaxLoadRPS: b.MaxLoadRPS},
	}, srv.ManagedCores(), srv.MaxPowerW())
	if mgr.Name() != "twig-c" {
		t.Fatal("expected twig-c")
	}

	controllers := []twig.Controller{
		mgr,
		twig.NewStatic(srv.ManagedCores(), 2),
		twig.NewParties(twig.DefaultPartiesConfig(), srv.ManagedCores(), 2),
	}
	obs := twig.InitialObservation(srv)
	for _, c := range controllers {
		asg := c.Decide(obs)
		if len(asg.PerService) != 2 {
			t.Fatalf("%s produced %d allocations", c.Name(), len(asg.PerService))
		}
	}
}

func TestPublicAPISingleServiceBaselines(t *testing.T) {
	cores := make([]int, 18)
	for i := range cores {
		cores[i] = i
	}
	h := twig.NewHipster(twig.DefaultHipsterConfig(), cores)
	e := twig.NewHeracles(twig.DefaultHeraclesConfig(120), cores)
	obs := twig.Observation{Services: []twig.ServiceObs{{P99Ms: 1, QoSTargetMs: 10, MaxLoadRPS: 1000}}}
	if len(h.Decide(obs).PerService) != 1 || len(e.Decide(obs).PerService) != 1 {
		t.Fatal("single-service baselines")
	}
	if twig.MinFreqGHz != 1.2 || twig.MaxFreqGHz != 2.0 {
		t.Fatal("platform constants")
	}
	if len(twig.TailbenchServices()) != 4 {
		t.Fatal("Tailbench services")
	}
	if _, err := twig.LookupProfile("nope"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestPublicStepWiseLoad(t *testing.T) {
	s := twig.NewStepWiseLoad(100, 500, 0.2, 200)
	if s.RPS(0) != 100 {
		t.Fatal("stepwise start")
	}
	d := twig.DiurnalLoad{MinRPS: 10, MaxRPS: 20, PeriodS: 100}
	if v := d.RPS(0); v < 10 || v > 20 {
		t.Fatal("diurnal range")
	}
}

// TestPublicFaultsAndGuard drives the robustness surface end to end
// through the public API: a named fault scenario armed on the server and
// a guarded manager stepping through it.
func TestPublicFaultsAndGuard(t *testing.T) {
	prof, err := twig.LookupProfile("masstree")
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := twig.NamedFaultScenario("hostile")
	if err != nil {
		t.Fatal(err)
	}
	if len(twig.FaultScenarioNames()) < 4 {
		t.Fatalf("scenarios: %v", twig.FaultScenarioNames())
	}

	cfg := twig.DefaultServerConfig()
	cfg.Faults = &scenario
	srv := twig.NewServer(cfg, []twig.ServiceSpec{{Profile: prof, QoSTargetMs: 5, Seed: 1}})
	mgr := twig.NewTwigS(twig.ServiceConfig{
		Name:        prof.Name,
		QoSTargetMs: 5,
		MaxLoadRPS:  prof.MaxLoadRPS,
	}, srv.ManagedCores(), srv.MaxPowerW())
	guarded := twig.NewGuard(mgr, twig.DefaultGuardConfig(srv.ManagedCores()))
	if guarded.Name() != mgr.Name()+"+guard" {
		t.Fatalf("name = %q", guarded.Name())
	}

	loop := twig.NewLoop(srv, guarded)
	loop.Loads()[0] = 0.3 * prof.MaxLoadRPS
	var faultsSeen []twig.FaultEvent
	for ts := 0; ts < 120; ts++ {
		res, out, err := loop.Step()
		if err != nil || out != 0 {
			t.Fatalf("guarded decision fell back at t=%d: outcome %b, err %v", ts, out, err)
		}
		faultsSeen = append(faultsSeen, res.Faults...)
	}
	if len(faultsSeen) == 0 {
		t.Fatal("hostile scenario injected nothing in 120 s")
	}
	if guarded.Health().ObsRepaired == 0 {
		t.Fatal("guard repaired nothing under a hostile scenario")
	}
}
