package twig_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/twig"
)

func svcs() []twig.ServiceConfig {
	return []twig.ServiceConfig{{Name: "a", QoSTargetMs: 5, MaxLoadRPS: 1000}}
}

func TestQuickConfigShrinksPaperConfig(t *testing.T) {
	q := twig.QuickConfig(svcs(), 18, 100)
	p := twig.PaperConfig(svcs(), 18, 100)
	if q.Agent.Spec.SharedHidden[0] >= p.Agent.Spec.SharedHidden[0] {
		t.Fatal("quick config must use a smaller network")
	}
	if q.Agent.Epsilon.EndStep >= p.Agent.Epsilon.EndStep &&
		p.Agent.Epsilon.EndStep != 0 {
		t.Fatal("quick config must anneal faster")
	}
	if p.Agent.Spec.SharedHidden[0] != 512 || p.Agent.Spec.BranchHidden != 128 || p.Agent.Spec.Dropout != 0.5 {
		t.Fatalf("paper config deviates from Sec. IV: %+v", p.Agent.Spec)
	}
	// Both must construct working managers.
	cores := make([]int, 18)
	for i := range cores {
		cores[i] = i
	}
	if twig.NewManager(q, cores) == nil || twig.NewManager(p, cores) == nil {
		t.Fatal("constructors")
	}
}

// TestNewTwigRunsPaperConfig: NewTwigS and NewTwigC promise the paper's
// hyper-parameters, so the agent they build is the one PaperConfig
// builds, dropout 0.5 included.
func TestNewTwigRunsPaperConfig(t *testing.T) {
	cores := make([]int, 18)
	for i := range cores {
		cores[i] = i
	}
	got := twig.NewTwigS(svcs()[0], cores, 100).Agent().Config()
	want := twig.NewManager(twig.PaperConfig(svcs(), 18, 100), cores).Agent().Config()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewTwigS agent\n%+v\nPaperConfig agent\n%+v", got, want)
	}
}

// TestQuickConfigIsQuickScale: the public quick profile is the one the
// experiments and the daemon run, field for field but the seed.
func TestQuickConfigIsQuickScale(t *testing.T) {
	prof, err := twig.LookupProfile("masstree")
	if err != nil {
		t.Fatal(err)
	}
	srv := twig.NewServer(twig.DefaultServerConfig(), []twig.ServiceSpec{{Profile: prof, QoSTargetMs: 5, Seed: 1}})
	want := experiments.ManagerConfig(srv, experiments.QuickScale(), 7, svcs())
	want.Agent.Seed = 0
	got := twig.QuickConfig(svcs(), len(srv.ManagedCores()), srv.MaxPowerW())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QuickConfig\n%+v\nManagerConfig at QuickScale\n%+v", got, want)
	}
}

func TestRewardConfigExposed(t *testing.T) {
	cfg := twig.QuickConfig(svcs(), 18, 100)
	if cfg.Reward.Theta != 0.5 || cfg.Reward.Phi != 3 || cfg.Reward.Floor != -100 {
		t.Fatalf("reward defaults %+v", cfg.Reward)
	}
}

func TestPowerModelRoundtripThroughFacade(t *testing.T) {
	samples := make([]twig.PowerSample, 0, 40)
	for load := 0.2; load <= 0.8; load += 0.2 {
		for c := 2; c <= 18; c += 4 {
			for f := 1.2; f <= 2.0; f += 0.4 {
				samples = append(samples, twig.PowerSample{
					LoadFrac: load, Cores: c, FreqGHz: f,
					DynamicW: 10*load + 0.9*float64(c) + 6*f,
				})
			}
		}
	}
	m, err := twig.FitPowerModel(samples, 25, newRand())
	if err != nil {
		t.Fatal(err)
	}
	if m.Estimate(0.5, 8, 1.6) <= 0 {
		t.Fatal("estimate")
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
