package experiments

import (
	"math/rand"
	"sync"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Scale selects between the paper's full-size configuration and a
// scaled-down profile that preserves the learning dynamics at a fraction
// of the compute, used by tests and benchmarks. One simulated second is
// one control step either way.
type Scale struct {
	Name         string
	SharedHidden []int
	BranchHidden int
	Dropout      float64
	BatchSize    int
	TargetSync   int
	PERAnneal    int
	Gamma        float64
	TrainPerStep int
	Epsilon      bdq.EpsilonSchedule
	// LearnS is the learning-phase length (excluded from summaries, as
	// in Sec. V-A); SummaryS is the evaluation window after it.
	LearnS   int
	SummaryS int
}

// PaperScale reproduces Sec. IV exactly: 512/256 shared units, 128 per
// branch, dropout 0.5, minibatch 64, ε annealed over 10 000 s then
// 25 000 s, summaries over the last 300 s after a 10 000 s learning
// phase.
func PaperScale() Scale {
	return Scale{
		Name:         "paper",
		SharedHidden: []int{512, 256},
		BranchHidden: 128,
		Dropout:      0.5,
		BatchSize:    64,
		TargetSync:   150,
		PERAnneal:    25_000,
		Gamma:        0.99,
		TrainPerStep: 1,
		Epsilon:      bdq.EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 10_000, EndStep: 25_000},
		LearnS:       10_000,
		SummaryS:     300,
	}
}

// QuickScale shrinks the network and compresses the ε schedule ~6×,
// which keeps every qualitative result while making the full experiment
// suite runnable in minutes on a laptop.
func QuickScale() Scale {
	return Scale{
		Name:         "quick",
		SharedHidden: []int{64, 48},
		BranchHidden: 32,
		Dropout:      0,
		BatchSize:    32,
		TargetSync:   100,
		PERAnneal:    5000,
		Gamma:        0.9,
		TrainPerStep: 3,
		Epsilon:      bdq.EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 2000, EndStep: 3800},
		LearnS:       4000,
		SummaryS:     300,
	}
}

var (
	qosMu    sync.Mutex
	qosCache = map[string]float64{}

	pmMu    sync.Mutex
	pmCache = map[string]*core.PowerModel{}
)

// QoSTarget returns the calibrated p99 target for a built-in service on
// the default platform (Table II methodology), cached across calls.
func QoSTarget(name string) float64 {
	qosMu.Lock()
	defer qosMu.Unlock()
	if v, ok := qosCache[name]; ok {
		return v
	}
	p := service.MustLookup(name)
	v := sim.CalibrateQoSTarget(p, sim.DefaultConfig(), 120, 1000)
	qosCache[name] = v
	return v
}

// PowerModelFor profiles and fits the Eq. 2 model for a built-in
// service, cached across calls.
func PowerModelFor(name string) *core.PowerModel {
	pmMu.Lock()
	defer pmMu.Unlock()
	if m, ok := pmCache[name]; ok {
		return m
	}
	spec := sim.ServiceSpec{Profile: service.MustLookup(name), Seed: 77}
	samples := core.ProfilePower(spec, sim.DefaultConfig(), 12, 77)
	m, err := core.FitPowerModel(samples, sim.NewServer(sim.DefaultConfig(), []sim.ServiceSpec{spec}).IdlePowerW(), rand.New(rand.NewSource(77)))
	if err != nil {
		panic(err)
	}
	pmCache[name] = m
	return m
}

// NewServer builds a default simulated server hosting the named services
// with calibrated QoS targets.
func NewServer(seed int64, names ...string) *sim.Server {
	return NewFaultyServer(seed, nil, names...)
}

// NewFaultyServer is NewServer with a fault-injection scenario armed.
// The schedule is fully determined by the scenario and seed, so runs are
// reproducible fault-for-fault.
func NewFaultyServer(seed int64, fs *faults.Scenario, names ...string) *sim.Server {
	specs := make([]sim.ServiceSpec, len(names))
	for i, n := range names {
		specs[i] = sim.ServiceSpec{
			Profile:     service.MustLookup(n),
			QoSTargetMs: QoSTarget(n),
			Seed:        seed + int64(i)*101,
		}
	}
	cfg := sim.DefaultConfig()
	cfg.MeasurementSeed = seed
	cfg.Faults = fs
	return sim.NewServer(cfg, specs)
}

// NewTwig builds a Twig manager (Twig-S for one name, Twig-C for more)
// at the given scale with fitted power models.
func NewTwig(srv *sim.Server, sc Scale, seed int64, names ...string) *core.Manager {
	return core.NewManager(twigConfig(srv, sc, seed, names...), srv.ManagedCores())
}

// NewTwigPooled is NewTwig with the manager's agent attached to a
// shared AgentPool: identical trajectories bit-for-bit, batched
// grouped-GEMM execution.
func NewTwigPooled(srv *sim.Server, sc Scale, seed int64, pools *bdq.Pools, names ...string) *core.Manager {
	return core.NewManagerPooled(twigConfig(srv, sc, seed, names...), srv.ManagedCores(), pools)
}

// twigConfig assembles the manager configuration NewTwig uses; ablation
// experiments mutate it before construction.
func twigConfig(srv *sim.Server, sc Scale, seed int64, names ...string) core.Config {
	services := make([]core.ServiceConfig, len(names))
	for i, n := range names {
		services[i] = ServiceConfigFor(n, QoSTarget(n))
	}
	return ManagerConfig(srv, sc, seed, services)
}

// ServiceConfigFor describes one built-in service to a Twig manager:
// the tail-latency target it is held to, its profiled saturation load
// and its fitted Eq. 2 power model (the reference-platform fit — the
// model's shape transfers across SKUs and only steers the reward).
func ServiceConfigFor(name string, qosTargetMs float64) core.ServiceConfig {
	return core.ServiceConfig{
		Name:        name,
		QoSTargetMs: qosTargetMs,
		MaxLoadRPS:  service.MustLookup(name).MaxLoadRPS,
		Power:       PowerModelFor(name),
	}
}

// ManagerConfig assembles the Twig manager configuration every driver
// uses — experiment runs, scenario worlds, fleet nodes and the daemon —
// for the given services on srv's SKU at the given learning scale.
func ManagerConfig(srv *sim.Server, sc Scale, seed int64, services []core.ServiceConfig) core.Config {
	cfg := core.DefaultConfig(services, len(srv.ManagedCores()), srv.MaxPowerW())
	// The paper recommends pure exploitation after the learning phase to
	// cut overhead; the evaluation keeps learning at ε=End so a policy
	// that drifts into violations self-corrects.
	cfg.Agent = bdq.AgentConfig{
		Spec: bdq.Spec{
			SharedHidden: sc.SharedHidden,
			BranchHidden: sc.BranchHidden,
			Dropout:      sc.Dropout,
		},
		Gamma:          sc.Gamma,
		TrainPerStep:   sc.TrainPerStep,
		BatchSize:      sc.BatchSize,
		TargetSync:     sc.TargetSync,
		PERAnnealSteps: sc.PERAnneal,
		Epsilon:        sc.Epsilon,
		UsePER:         true,
		Seed:           seed,
	}
	return cfg
}
