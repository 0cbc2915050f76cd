package core

import (
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

func smallManager(k int) *Manager {
	services := make([]ServiceConfig, k)
	for i := range services {
		services[i] = ServiceConfig{
			Name:        "svc",
			QoSTargetMs: 5,
			MaxLoadRPS:  1000,
		}
	}
	cfg := Config{
		Services:  services,
		MaxPowerW: 100,
		Agent: bdq.AgentConfig{
			Spec:      bdq.Spec{SharedHidden: []int{16, 12}, BranchHidden: 8},
			BatchSize: 8,
			Epsilon:   bdq.EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.05, MidStep: 50, EndStep: 100},
			Seed:      1,
		},
	}
	return NewManager(cfg, coresRange(18))
}

func obsFor(k int, p99 float64) ctrl.Observation {
	obs := ctrl.Observation{PowerW: 50}
	for i := 0; i < k; i++ {
		var s pmc.Sample
		for j := range s {
			s[j] = 0.3
		}
		obs.Services = append(obs.Services, ctrl.ServiceObs{
			P99Ms: p99, QoSTargetMs: 5, MeasuredRPS: 500, MaxLoadRPS: 1000, NormPMCs: s,
		})
	}
	return obs
}

func TestManagerDecideShape(t *testing.T) {
	m := smallManager(2)
	if m.Name() != "twig-c" {
		t.Fatalf("Name = %q", m.Name())
	}
	asg := m.Decide(obsFor(2, 3))
	if len(asg.PerService) != 2 {
		t.Fatalf("allocations = %d", len(asg.PerService))
	}
	for _, a := range asg.PerService {
		if len(a.Cores) < 1 || len(a.Cores) > 18 {
			t.Fatalf("core count %d out of range", len(a.Cores))
		}
		if a.FreqGHz < platform.MinFreqGHz || a.FreqGHz > platform.MaxFreqGHz {
			t.Fatalf("freq %v out of range", a.FreqGHz)
		}
	}
	if asg.IdleFreqGHz != platform.MinFreqGHz {
		t.Fatal("Twig parks idle cores at the lowest DVFS state")
	}
}

func TestManagerSingleServiceName(t *testing.T) {
	if smallManager(1).Name() != "twig-s" {
		t.Fatal("single-service manager is Twig-S")
	}
}

func TestManagerTrainsAfterWarmup(t *testing.T) {
	m := smallManager(1)
	for i := 0; i < 30; i++ {
		m.Decide(obsFor(1, 3))
	}
	if m.Agent().ReplayLen() < 20 {
		t.Fatalf("replay has %d transitions", m.Agent().ReplayLen())
	}
	if m.Agent().Step() != 30 {
		t.Fatalf("agent steps = %d", m.Agent().Step())
	}
}

func TestManagerObservationValidation(t *testing.T) {
	m := smallManager(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Decide(obsFor(1, 3))
}

func TestManagerPureExploitStopsTraining(t *testing.T) {
	services := []ServiceConfig{{Name: "s", QoSTargetMs: 5, MaxLoadRPS: 1000}}
	cfg := Config{
		Services:         services,
		MaxPowerW:        100,
		PureExploitAfter: 5,
		Agent: bdq.AgentConfig{
			Spec:      bdq.Spec{SharedHidden: []int{16, 12}, BranchHidden: 8},
			BatchSize: 4,
			Seed:      1,
		},
	}
	m := NewManager(cfg, coresRange(18))
	for i := 0; i < 5; i++ {
		m.Decide(obsFor(1, 3))
	}
	replayAt5 := m.Agent().ReplayLen()
	stepAt5 := m.Agent().Step()
	for i := 0; i < 10; i++ {
		m.Decide(obsFor(1, 3))
	}
	if m.Agent().ReplayLen() != replayAt5 {
		t.Fatal("pure exploitation must stop storing transitions")
	}
	if m.Agent().Step() != stepAt5 {
		t.Fatal("pure exploitation must use greedy selection")
	}
}

func TestManagerRewardUsesPowerModel(t *testing.T) {
	m := smallManager(1)
	m.prevReqs = []Request{{Cores: 4, FreqGHz: 1.2}}
	// Without a model: fallback estimate.
	rNoModel := m.rewardFor(0, ctrl.ServiceObs{P99Ms: 4, QoSTargetMs: 5, MeasuredRPS: 500, MaxLoadRPS: 1000})
	m.SetService(0, ServiceConfig{
		Name: "s", QoSTargetMs: 5, MaxLoadRPS: 1000,
		Power: &PowerModel{Kappa: 1, Sigma: 10, Omega: 1}, // expensive per core
	})
	rModel := m.rewardFor(0, ctrl.ServiceObs{P99Ms: 4, QoSTargetMs: 5, MeasuredRPS: 500, MaxLoadRPS: 1000})
	if rModel == rNoModel {
		t.Fatal("power model must change the reward")
	}
	// Violation path is model-independent.
	rViol := m.rewardFor(0, ctrl.ServiceObs{P99Ms: 50, QoSTargetMs: 5, MeasuredRPS: 500, MaxLoadRPS: 1000})
	if rViol != -100 {
		t.Fatalf("deep violation reward = %v", rViol)
	}
}

func TestManagerMigrationsCounted(t *testing.T) {
	m := smallManager(1)
	for i := 0; i < 40; i++ {
		m.Decide(obsFor(1, 3))
	}
	// With ε = 1 early on, allocations change nearly every step.
	if m.Migrations() == 0 {
		t.Fatal("exploration must produce migrations")
	}
}

func TestManagerTransferClearsState(t *testing.T) {
	m := smallManager(1)
	for i := 0; i < 150; i++ {
		m.Decide(obsFor(1, 3))
	}
	if m.Agent().Epsilon() > 0.2 {
		t.Fatalf("epsilon before transfer = %v", m.Agent().Epsilon())
	}
	m.Transfer(0)
	if m.Agent().Epsilon() != 1 {
		t.Fatal("Transfer must restart exploration")
	}
	if m.prevState != nil {
		t.Fatal("Transfer must clear the (s,a) memory")
	}
}

func TestManagerCopyWeightsFrom(t *testing.T) {
	m := smallManager(1)
	for i := 0; i < 30; i++ {
		m.Decide(obsFor(1, 3))
	}
	m2 := smallManager(1)
	m2.CopyWeightsFrom(m)
	// Same greedy decision on an identical state.
	st := make([]float64, 11)
	for i := range st {
		st[i] = 0.4
	}
	g1 := m.Agent().SelectGreedy(st)
	g2 := m2.Agent().SelectGreedy(st)
	if g1[0][0] != g2[0][0] || g1[0][1] != g2[0][1] {
		t.Fatal("manager decides differently from its donor")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig([]ServiceConfig{{Name: "a"}}, 18, 100)
	if cfg.Eta != 5 || cfg.Reward != DefaultRewardConfig() || !cfg.Agent.UsePER {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}
