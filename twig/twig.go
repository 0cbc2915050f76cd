// Package twig is the public API of the Twig reproduction: a
// quality-of-service-aware task manager for colocated latency-critical
// services that learns core-count and DVFS assignments with a
// multi-agent branching dueling Q-network driven by hardware performance
// counters (Nishtala et al., HPCA 2020).
//
// The package re-exports the manager (Twig-S for a single service,
// Twig-C for colocated services), the baselines it is evaluated against,
// and the simulated server substrate that stands in for the paper's
// dual-socket Xeon testbed. A minimal control loop looks like:
//
//	srv := twig.NewServer(twig.DefaultServerConfig(), specs)
//	mgr := twig.NewTwigS(svcCfg, srv.ManagedCores(), srv.MaxPowerW())
//	obs := twig.InitialObservation(srv)
//	for t := 0; t < seconds; t++ {
//	    asg := mgr.Decide(obs)
//	    res := srv.MustStep(asg, loads) // or Step for a validated error
//	    obs = twig.ObservationFrom(srv, res)
//	}
//
// See examples/ for runnable programs and DESIGN.md for the full system
// inventory.
package twig

import (
	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Core manager types (Sec. III of the paper).
type (
	// Manager is the Twig task manager: system monitor, multi-agent BDQ
	// learning agent, and mapper module behind one Decide call per
	// monitoring interval.
	Manager = core.Manager
	// Config configures a Manager.
	Config = core.Config
	// ServiceConfig describes one managed service (QoS target, profiled
	// maximum load, fitted power model).
	ServiceConfig = core.ServiceConfig
	// RewardConfig holds the Eq. 1 parameters (θ, φ, ϕ).
	RewardConfig = core.RewardConfig
	// PowerModel is the per-service Eq. 2 power model.
	PowerModel = core.PowerModel
	// PowerSample is one power-profiling measurement.
	PowerSample = core.PowerSample
	// Request is a per-service (cores, DVFS) resource request.
	Request = core.Request
	// Mapper assigns requests to concrete cores with locality ordering
	// and resource arbitration.
	Mapper = core.Mapper
	// Monitor smooths per-service PMC vectors over η intervals.
	Monitor = core.Monitor
)

// Controller-side types shared by Twig and the baselines.
type (
	// Controller is the interface every task manager implements.
	Controller = ctrl.Controller
	// Observation is the per-interval system view a Controller receives.
	Observation = ctrl.Observation
	// ServiceObs is one service's slice of an Observation.
	ServiceObs = ctrl.ServiceObs
	// Guard wraps any Controller with observation sanitising, panic
	// containment, action validation and a QoS circuit breaker.
	Guard = ctrl.Guard
	// GuardConfig tunes a Guard; GuardHealth counts its interventions.
	GuardConfig = ctrl.GuardConfig
	GuardHealth = ctrl.GuardHealth
)

// Fault-injection types for robustness studies: a FaultScenario armed in
// a ServerConfig yields a deterministic, seed-reproducible schedule of
// sensor, actuator, core and service failures (see DESIGN.md, "Fault
// model and degraded-mode operation").
type (
	// FaultScenario is a declarative set of fault rates and crash cadence.
	FaultScenario = faults.Scenario
	// FaultEvent is one scheduled fault occurrence.
	FaultEvent = faults.Event
)

// NewGuard wraps a controller in the resilient harness.
func NewGuard(inner Controller, cfg GuardConfig) *Guard { return ctrl.NewGuard(inner, cfg) }

// DefaultGuardConfig returns the recommended guard settings for a
// managed core set.
func DefaultGuardConfig(managed []int) GuardConfig { return ctrl.DefaultGuardConfig(managed) }

// FaultScenarioNames lists the built-in named scenarios ("none",
// "sensor", "actuator", "crash", "flashcrowd", "hostile").
func FaultScenarioNames() []string { return faults.Names() }

// NamedFaultScenario returns a built-in scenario by name.
func NamedFaultScenario(name string) (FaultScenario, error) { return faults.Named(name) }

// Simulated-platform types (the substrate substituting the paper's
// testbed; see DESIGN.md, "Substitutions").
type (
	// Server is the simulated dual-socket node.
	Server = sim.Server
	// ServerConfig assembles a simulated server.
	ServerConfig = sim.Config
	// ServiceSpec attaches a QoS target and seed to a service profile.
	ServiceSpec = sim.ServiceSpec
	// Assignment is a full mapping decision for one interval.
	Assignment = sim.Assignment
	// Allocation is one service's cores + DVFS for one interval.
	Allocation = sim.Allocation
	// StepResult is the outcome of one simulated interval.
	StepResult = sim.StepResult
	// Profile is a service's static characterisation.
	Profile = service.Profile
	// LoadPattern yields offered load over time.
	LoadPattern = loadgen.Pattern
)

// DVFS constants of the modelled platform.
const (
	MinFreqGHz = platform.MinFreqGHz
	MaxFreqGHz = platform.MaxFreqGHz
)

// NewServer builds a simulated server hosting the given services.
func NewServer(cfg ServerConfig, specs []ServiceSpec) *Server {
	return sim.NewServer(cfg, specs)
}

// DefaultServerConfig returns the paper's evaluation platform: two
// 18-core sockets, 1.2–2.0 GHz DVFS, ~68 GB/s memory bandwidth and a
// 45 MB LLC per socket.
func DefaultServerConfig() ServerConfig { return sim.DefaultConfig() }

// LookupProfile returns a built-in Tailbench-style service profile
// ("masstree", "xapian", "moses", "img-dnn", "memcached", "web-search").
func LookupProfile(name string) (Profile, error) { return service.Lookup(name) }

// TailbenchServices lists the four Table II services.
func TailbenchServices() []string { return service.TailbenchNames() }

// CalibrateQoSTarget measures a service's p99 latency at maximum load on
// a full socket at the highest DVFS setting — the Table II methodology.
func CalibrateQoSTarget(p Profile, cfg ServerConfig, seconds int, seed int64) float64 {
	return sim.CalibrateQoSTarget(p, cfg, seconds, seed)
}

// NewTwigS creates a Twig-S manager for a single latency-critical
// service with the paper's hyper-parameters.
func NewTwigS(svc ServiceConfig, managedCores []int, maxPowerW float64) *Manager {
	return NewManager(core.DefaultConfig([]ServiceConfig{svc}, len(managedCores), maxPowerW), managedCores)
}

// NewTwigC creates a Twig-C manager coordinating several colocated
// services with the paper's hyper-parameters.
func NewTwigC(svcs []ServiceConfig, managedCores []int, maxPowerW float64) *Manager {
	return NewManager(core.DefaultConfig(svcs, len(managedCores), maxPowerW), managedCores)
}

// NewManager creates a manager from an explicit Config, for callers that
// tune hyper-parameters.
func NewManager(cfg Config, managedCores []int) *Manager {
	return core.NewManager(cfg, managedCores)
}

// QuickConfig returns a scaled-down manager configuration (smaller
// network, ε annealed over ~3800 steps instead of 25 000, several
// gradient updates per interval) that learns in minutes of simulated
// time. PaperConfig gives Sec. IV's exact hyper-parameters.
func QuickConfig(svcs []ServiceConfig, numCores int, maxPowerW float64) Config {
	cfg := core.DefaultConfig(svcs, numCores, maxPowerW)
	cfg.Agent.Spec.SharedHidden = []int{64, 48}
	cfg.Agent.Spec.BranchHidden = 32
	cfg.Agent.Gamma = 0.9
	cfg.Agent.TrainPerStep = 3
	cfg.Agent.BatchSize = 32
	cfg.Agent.TargetSync = 100
	cfg.Agent.PERAnnealSteps = 5000
	cfg.Agent.Epsilon = bdq.EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 2000, EndStep: 3800}
	return cfg
}

// PaperConfig returns the manager configuration with the paper's exact
// hyper-parameters (Sec. IV): 512/256 shared units, 128 per branch,
// dropout 0.5, Adam 0.0025, minibatch 64, γ 0.99, target sync 150, PER
// 10⁶ with α 0.6 / β 0.4→1, ε 1→0.1@10 000→0.01@25 000.
func PaperConfig(svcs []ServiceConfig, numCores int, maxPowerW float64) Config {
	cfg := core.DefaultConfig(svcs, numCores, maxPowerW)
	cfg.Agent.Spec.SharedHidden = []int{512, 256}
	cfg.Agent.Spec.BranchHidden = 128
	cfg.Agent.Spec.Dropout = 0.5
	return cfg
}

// FitPowerModel fits the Eq. 2 per-service power model to profiling
// samples (random grid search over ridge strength, 5-fold CV).
var FitPowerModel = core.FitPowerModel

// ProfilePower runs the Sec. IV power-profiling campaign on a simulated
// server: three load levels, alternate core counts and DVFS states with
// unused cores hot-unplugged.
var ProfilePower = core.ProfilePower

// Load patterns for driving experiments.
type (
	// FixedLoad is a constant request rate.
	FixedLoad = loadgen.Fixed
	// StepWiseLoad is the paper's varying-load ladder (Figs. 10–11).
	StepWiseLoad = loadgen.StepWise
	// DiurnalLoad is a day/night sinusoid.
	DiurnalLoad = loadgen.Diurnal
)

// NewStepWiseLoad builds the paper's step-wise monotonic load generator.
func NewStepWiseLoad(minRPS, maxRPS, changeFactor float64, periodS int) *StepWiseLoad {
	return loadgen.NewStepWise(minRPS, maxRPS, changeFactor, periodS)
}

// ObservationTracker converts step results into controller observations
// while tracking per-service queue depth across intervals, so
// ServiceObs.QueueGrowing reflects an actual increase. Control loops that
// run for more than one interval should use a tracker rather than the
// stateless ObservationFrom.
type ObservationTracker = ctrl.ObservationTracker

// ObservationFrom converts a simulation step result into the controller
// observation for the next interval. It is stateless, so QueueGrowing is
// set whenever the queue is non-empty; loops should prefer an
// ObservationTracker, which compares against the previous interval
// exactly as the experiment runners do.
func ObservationFrom(srv *Server, res StepResult) Observation {
	return ctrl.ObservationFromStep(srv, res)
}

// InitialObservation bootstraps a control loop before any measurement.
func InitialObservation(srv *Server) Observation {
	return ctrl.InitialObservation(srv)
}
