package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/twig-sched/twig/internal/baselines"
	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Scale is a learning profile: the agent's configuration (bdq.PaperAgent
// or bdq.QuickAgent, or a smaller one of a test's own) and the
// evaluation protocol around it. One simulated second is one control
// step at every scale. The protocol is the same at every scale: the
// summary window opens at LearnS, once ε has reached its end value
// (LearnS ≥ Epsilon.EndStep), and the agent keeps learning through it,
// so a summary scores the learned policy rather than exploration.
type Scale struct {
	Name string
	bdq.AgentConfig
	// LearnS is the learning-phase length (excluded from summaries, as
	// in Sec. V-A); SummaryS is the evaluation window after it.
	LearnS   int
	SummaryS int
}

// PaperScale reproduces Sec. IV exactly (bdq.PaperAgent), with
// summaries over the 300 s after a learning phase that lasts until ε
// reaches its end value (25 000 s).
func PaperScale() Scale {
	agent := bdq.PaperAgent()
	return Scale{Name: "paper", AgentConfig: agent, LearnS: agent.Epsilon.EndStep, SummaryS: 300}
}

// QuickScale runs bdq.QuickAgent, which keeps every qualitative result
// while making the full experiment suite runnable in minutes on a
// laptop; its window opens after ε has reached its end value.
func QuickScale() Scale {
	return Scale{Name: "quick", AgentConfig: bdq.QuickAgent(), LearnS: 4000, SummaryS: 300}
}

// ErrUnknownScale marks a scale name NamedScale does not know.
var ErrUnknownScale = errors.New("experiments: unknown scale")

// NamedScale returns the scale called name: quick, paper or short.
func NamedScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "paper":
		return PaperScale(), nil
	case "short":
		return ShortScale(), nil
	}
	return Scale{}, fmt.Errorf("%w %q (want quick, paper or short)", ErrUnknownScale, name)
}

// onceByKey holds one once-value per key: the first caller of a key
// computes it, later and concurrent callers of that key wait for the one
// computation, and callers of different keys never wait on each other.
type onceByKey[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V
}

// get returns calc(k), computed once per key for the life of c.
func (c *onceByKey[K, V]) get(k K, calc func(K) V) V {
	c.mu.Lock()
	f, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = map[K]func() V{}
		}
		f = sync.OnceValue(func() V { return calc(k) })
		c.m[k] = f
	}
	c.mu.Unlock()
	return f()
}

var (
	qosCache onceByKey[string, float64]
	pmCache  onceByKey[string, *core.PowerModel]
)

// QoSTarget returns the calibrated p99 target for a built-in service on
// the default platform (Table II methodology), cached across calls.
func QoSTarget(name string) float64 { return qosCache.get(name, calibrateQoS) }

// calibrateQoS is QoSTarget without the cache.
func calibrateQoS(name string) float64 {
	return sim.CalibrateQoSTarget(service.MustLookup(name), sim.DefaultConfig(), 120, 1000)
}

// PowerModelFor profiles and fits the Eq. 2 model for a built-in
// service, cached across calls.
func PowerModelFor(name string) *core.PowerModel { return pmCache.get(name, fitPowerModel) }

// fitPowerModel is PowerModelFor without the cache.
func fitPowerModel(name string) *core.PowerModel {
	spec := sim.ServiceSpec{Profile: service.MustLookup(name), Seed: 77}
	samples := core.ProfilePower(spec, sim.DefaultConfig(), 12)
	m, err := core.FitPowerModel(samples, sim.NewServer(sim.DefaultConfig(), []sim.ServiceSpec{spec}).IdlePowerW(), rand.New(rand.NewSource(77)))
	if err != nil {
		panic(err)
	}
	return m
}

// Calibrate fills the caches in one fan-out over GOMAXPROCS workers: a
// QoS calibration for each name in qos and an Eq. 2 profile and fit for
// each in power, every one a job of its own (the longer fits first). A
// value already cached costs nothing; one being computed is waited for.
func Calibrate(qos, power []string) {
	par.For(len(power)+len(qos), func(i int) {
		if i < len(power) {
			PowerModelFor(power[i])
			return
		}
		QoSTarget(qos[i-len(power)])
	})
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
	Calibrate(names, nil)
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

// newController builds the manager called manager for srv's services
// names: a baseline (static, heracles, hipster, parties) or Twig
// (twig-s, twig-c). Every figure compares its managers through it.
func newController(manager string, srv *sim.Server, sc Scale, seed int64, names ...string) ctrl.Controller {
	switch manager {
	case "static":
		return baselines.NewStatic(srv.ManagedCores(), len(names))
	case "heracles":
		return baselines.NewHeracles(baselines.DefaultHeraclesConfig(1.1*srv.MaxPowerW()), srv.ManagedCores())
	case "hipster":
		cfg := baselines.DefaultHipsterConfig()
		cfg.LearnPhaseS = sc.LearnS / 2
		cfg.Seed = seed
		return baselines.NewHipster(cfg, srv.ManagedCores())
	case "parties":
		return baselines.NewParties(baselines.DefaultPartiesConfig(), srv.ManagedCores(), len(names))
	case "twig-s", "twig-c":
		return NewTwig(srv, sc, seed, names...)
	}
	panic("experiments: unknown manager " + manager)
}

// fixedLoads offers each named service frac of its maximum load.
func fixedLoads(frac float64, names ...string) []loadgen.Pattern {
	ps := make([]loadgen.Pattern, len(names))
	for i, n := range names {
		ps[i] = loadgen.Fixed(frac * service.MustLookup(n).MaxLoadRPS)
	}
	return ps
}

// NewTwig builds a Twig manager (Twig-S for one name, Twig-C for more)
// at the given scale with fitted power models.
func NewTwig(srv *sim.Server, sc Scale, seed int64, names ...string) *core.Manager {
	return core.NewManager(twigConfig(srv, sc, seed, names...), srv.ManagedCores())
}

// NewTwigPooled is NewTwig with the manager's agent attached to a
// shared AgentPool: identical trajectories bit-for-bit, the learning and
// selection run in the pool's flush.
func NewTwigPooled(srv *sim.Server, sc Scale, seed int64, pools *bdq.Pools, names ...string) *core.Manager {
	return core.NewManagerPooled(twigConfig(srv, sc, seed, names...), srv.ManagedCores(), pools)
}

// twigConfig assembles the manager configuration NewTwig uses;
// runTwigVariant mutates it before construction.
func twigConfig(srv *sim.Server, sc Scale, seed int64, names ...string) core.Config {
	Calibrate(names, names)
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
// for the given services on srv's SKU at the given learning scale. The
// manager keeps learning through the evaluation window at ε = End, which
// every scale's schedule has reached by LearnS
// (TestScalesOpenWindowAfterAnnealing).
func ManagerConfig(srv *sim.Server, sc Scale, seed int64, services []core.ServiceConfig) core.Config {
	cfg := core.DefaultConfig(services, len(srv.ManagedCores()), srv.MaxPowerW())
	cfg.Agent = sc.AgentConfig
	cfg.Agent.Seed = seed
	return cfg
}
