// Package scenario is the declarative scenario engine: it composes
// service profiles, platform descriptions and seeded trace generators
// into runnable worlds. A Spec names a scenario — node classes with
// their own core counts, DVFS ranges and inter-tier latency tax, a
// service mix per class, and a trace-generator family — and Worlds
// expands it deterministically into one world per node, ready to drive
// a sim.Server. The named presets (cloud-edge, agentic-burst, diurnal)
// are workload families beyond the paper's testbed: tiered cloud-edge
// load per TD3-Sched, spawn-fan-out agentic bursts per SwarmX, and
// cellular-style diurnal traffic with per-node phase shifts.
//
// The package sits below internal/experiments (which sweeps scenarios)
// and must not import it; QoS targets are calibrated by the caller
// against each world's own platform.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/service"
)

// TraceGen names a trace-generator family.
type TraceGen string

// The built-in generator families.
const (
	// GenCloudEdge is tiered load: a mean-reverting walk, smoothed and
	// calm on aggregation tiers, spiky with Poisson offload bursts on
	// edge tiers (TD3-Sched's cloud-edge traffic shape).
	GenCloudEdge TraceGen = "cloud-edge"
	// GenAgenticBurst is a long tail of short tool-call-like requests:
	// Poisson agent sessions each spawning a depth-decaying fan-out
	// cascade over the following seconds (SwarmX's request shape).
	GenAgenticBurst TraceGen = "agentic-burst"
	// GenDiurnal is a sinusoidal day/night cycle with a secondary
	// harmonic and mobility-style phase shifts between nodes (the
	// cellular RAN load model).
	GenDiurnal TraceGen = "diurnal"
)

// ServiceMix is one service in a node class's colocation mix.
type ServiceMix struct {
	// Service names a built-in profile.
	Service string
	// LoadFrac scales the profile's MaxLoadRPS to this scenario's peak
	// offered load for the service.
	LoadFrac float64
}

// NodeClass describes one homogeneous group of nodes.
type NodeClass struct {
	Name  string
	Count int
	// Platform is the node SKU; the zero value selects the paper's
	// 2×18-core Xeon with the full 1.2–2.0 GHz DVFS range.
	Platform platform.Config
	// LatencyTaxMs is the inter-tier network round-trip charged on
	// every request served from this class (sim.Config.LatencyTaxMs).
	LatencyTaxMs float64
	// Burstiness in [0,1] shapes the class's traffic: 0 is a smooth
	// aggregated tier, 1 a spiky leaf tier. Generators interpret it.
	Burstiness float64
	// Mix is the colocated service set every node of this class hosts.
	Mix []ServiceMix
}

// platformConfig resolves the class SKU, defaulting to the paper node.
func (c NodeClass) platformConfig() platform.Config {
	if c.Platform.Sockets == 0 && c.Platform.CoresPerSocket == 0 {
		p := platform.DefaultConfig()
		p.MinFreqGHz, p.MaxFreqGHz = c.Platform.MinFreqGHz, c.Platform.MaxFreqGHz
		return p
	}
	return c.Platform
}

// Spec is a declarative scenario: classes × mix × generator.
type Spec struct {
	Name        string
	Description string
	Classes     []NodeClass
	// Gen selects the trace-generator family for every node.
	Gen TraceGen
	// DurationS is the generated trace length; traces loop past it, so
	// runs of any length draw from the same deterministic series.
	DurationS int
}

// TotalNodes is the number of worlds the spec expands to.
func (s Spec) TotalNodes() int {
	n := 0
	for _, c := range s.Classes {
		n += c.Count
	}
	return n
}

// Validate checks the spec is expandable: known services and generator,
// sane counts, fractions, platforms and taxes.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	switch s.Gen {
	case GenCloudEdge, GenAgenticBurst, GenDiurnal:
	default:
		return fmt.Errorf("scenario %s: unknown trace generator %q", s.Name, s.Gen)
	}
	if s.DurationS < 60 {
		return fmt.Errorf("scenario %s: duration %d s is shorter than one monitoring minute", s.Name, s.DurationS)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario %s: no node classes", s.Name)
	}
	for _, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("scenario %s: class has no name", s.Name)
		}
		if c.Count < 1 {
			return fmt.Errorf("scenario %s: class %s has count %d", s.Name, c.Name, c.Count)
		}
		p := c.platformConfig()
		if p.Sockets < 1 || p.CoresPerSocket < 1 {
			return fmt.Errorf("scenario %s: class %s platform %+v is not a machine", s.Name, c.Name, p)
		}
		if lo, hi := p.FreqRange(); math.IsNaN(lo) || math.IsNaN(hi) || lo < 0.1 || hi < lo {
			return fmt.Errorf("scenario %s: class %s DVFS range [%v,%v] is invalid", s.Name, c.Name, lo, hi)
		}
		if !(c.LatencyTaxMs >= 0) || math.IsInf(c.LatencyTaxMs, 0) {
			return fmt.Errorf("scenario %s: class %s latency tax %v ms is not finite and non-negative", s.Name, c.Name, c.LatencyTaxMs)
		}
		if c.Burstiness < 0 || c.Burstiness > 1 || math.IsNaN(c.Burstiness) {
			return fmt.Errorf("scenario %s: class %s burstiness %v outside [0,1]", s.Name, c.Name, c.Burstiness)
		}
		if len(c.Mix) == 0 {
			return fmt.Errorf("scenario %s: class %s hosts no services", s.Name, c.Name)
		}
		for _, m := range c.Mix {
			if _, err := service.Lookup(m.Service); err != nil {
				return fmt.Errorf("scenario %s: class %s: %w", s.Name, c.Name, err)
			}
			if err := service.CheckLoad(m.LoadFrac); err != nil {
				return fmt.Errorf("scenario %s: class %s service %s: %w", s.Name, c.Name, m.Service, err)
			}
		}
	}
	return nil
}

// World is one expanded node: its class, its position in the scenario,
// and one generated trace per service in the class mix.
type World struct {
	// Scenario and Name identify the world, e.g. "cloud-edge" and
	// "cloud-edge/edge1".
	Scenario string
	Name     string
	Class    NodeClass
	// NodeIndex is the world's global index across the whole spec; the
	// diurnal phase shift and the trace seeds derive from it.
	NodeIndex int
	// Services lists the profile names, aligned with Traces.
	Services []string
	Traces   []*loadgen.Trace
}

// SimConfig assembles the simulator configuration for this world: the
// class SKU, its latency tax, and the managed socket pinned to the last
// socket (on a 1-socket edge box the only one).
func (w World) SimConfig(measurementSeed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Platform = w.Class.platformConfig()
	cfg.ManagedSocket = cfg.Platform.Sockets - 1
	cfg.LatencyTaxMs = w.Class.LatencyTaxMs
	cfg.MeasurementSeed = measurementSeed
	return cfg
}

// Patterns exposes the traces as load patterns, one per service.
func (w World) Patterns() []loadgen.Pattern {
	out := make([]loadgen.Pattern, len(w.Traces))
	for i, tr := range w.Traces {
		out[i] = tr
	}
	return out
}

// ServiceSpecs builds the simulator service specs; qosMs maps a profile
// name to the QoS target calibrated for this world's platform.
func (w World) ServiceSpecs(seed int64, qosMs func(name string) float64) []sim.ServiceSpec {
	specs := make([]sim.ServiceSpec, len(w.Services))
	for i, name := range w.Services {
		specs[i] = sim.ServiceSpec{
			Profile:     service.MustLookup(name),
			QoSTargetMs: qosMs(name),
			Seed:        seed + int64(i)*101,
		}
	}
	return specs
}

// Worlds expands the spec deterministically: one world per node, one
// trace per (node, service) seeded as seed + nodeIndex·10007 +
// serviceIndex·101. Equal (spec, seed) pairs yield byte-identical
// traces; the seed never perturbs the expansion order. Each trace draws
// from its own seeded stream, so the traces are generated over
// GOMAXPROCS workers, each into its own (node, service) slot.
func (s Spec) Worlds(seed int64) ([]World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	total := s.TotalNodes()
	worlds := make([]World, 0, total)
	type job struct{ world, svc int }
	var jobs []job
	for _, cl := range s.Classes {
		for j := 0; j < cl.Count; j++ {
			idx := len(worlds)
			w := World{
				Scenario:  s.Name,
				Name:      fmt.Sprintf("%s/%s%d", s.Name, cl.Name, j),
				Class:     cl,
				NodeIndex: idx,
				Traces:    make([]*loadgen.Trace, len(cl.Mix)),
			}
			for si, m := range cl.Mix {
				w.Services = append(w.Services, m.Service)
				jobs = append(jobs, job{idx, si})
			}
			worlds = append(worlds, w)
		}
	}
	par.For(len(jobs), func(i int) {
		w := &worlds[jobs[i].world]
		si := jobs[i].svc
		m := w.Class.Mix[si]
		peak := m.LoadFrac * service.MustLookup(m.Service).MaxLoadRPS
		tseed := seed + int64(w.NodeIndex)*10007 + int64(si)*101
		w.Traces[si] = s.generate(peak, w.Class, w.NodeIndex, total, tseed)
	})
	return worlds, nil
}

// generate builds one trace of the spec's family for a service peaking
// at peak RPS on node idx of total.
func (s Spec) generate(peak float64, cl NodeClass, idx, total int, seed int64) *loadgen.Trace {
	switch s.Gen {
	case GenCloudEdge:
		cfg := CloudEdgeCfg{
			MeanFrac:   0.55,
			Volatility: 0.02 + 0.10*cl.Burstiness,
			Revert:     0.15,
		}
		if cl.Burstiness < 0.5 {
			// Aggregation tier: many edge flows averaged out.
			cfg.SmoothS = 30
		} else {
			// Leaf tier: offload bursts land here.
			cfg.BurstEveryS = 240
			cfg.BurstMul = 1.8
			cfg.BurstS = 20
		}
		return CloudEdgeTrace(peak, s.DurationS, cfg, seed)
	case GenAgenticBurst:
		cfg := AgenticBurstCfg{
			FanOut:   2.2,
			Decay:    0.55,
			MaxDepth: 4,
			SpreadS:  2,
			BaseRPS:  0.10 * peak,
		}
		// Size the session rate so the long-run mean lands at ~60% of
		// the scenario peak, leaving the cascades room to spike.
		cfg.SessionsPerS = (0.60*peak - cfg.BaseRPS) / MeanCallsPerSession(cfg)
		return AgenticBurstTrace(s.DurationS, cfg, seed)
	case GenDiurnal:
		period := 1800
		return DiurnalMobilityTrace(peak, s.DurationS, DiurnalMobilityCfg{
			PeriodS:   period,
			PhaseS:    idx * period / total,
			NightFrac: 0.25,
			Harmonic:  0.15,
			Jitter:    0.02 + 0.04*cl.Burstiness,
		}, seed)
	}
	panic("scenario: unreachable generator " + string(s.Gen)) // Validate rejects unknown
}

// presets returns the built-in scenarios, rebuilt per call so callers
// can mutate their copy freely.
func presets() map[string]Spec {
	edgeSKU := platform.Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	return map[string]Spec{
		"cloud-edge": {
			Name:        "cloud-edge",
			Description: "two-tier deployment: one paper-SKU cloud node behind a 6 ms WAN tax, two capped 10-core edge nodes close to users",
			Gen:         GenCloudEdge,
			DurationS:   3600,
			Classes: []NodeClass{
				{
					Name: "cloud", Count: 1, LatencyTaxMs: 6, Burstiness: 0.2,
					Mix: []ServiceMix{{Service: "xapian", LoadFrac: 0.5}, {Service: "moses", LoadFrac: 0.4}},
				},
				{
					Name: "edge", Count: 2, Platform: edgeSKU, LatencyTaxMs: 1, Burstiness: 0.8,
					Mix: []ServiceMix{{Service: "xapian", LoadFrac: 0.25}, {Service: "masstree", LoadFrac: 0.3}},
				},
			},
		},
		"agentic-burst": {
			Name:        "agentic-burst",
			Description: "agentic serving pods: Poisson tool-call sessions spawning depth-decaying fan-out cascades over a memcached/masstree/xapian mix",
			Gen:         GenAgenticBurst,
			DurationS:   3600,
			Classes: []NodeClass{
				{
					Name: "pod", Count: 2, Burstiness: 1,
					Mix: []ServiceMix{
						{Service: "memcached", LoadFrac: 0.05},
						{Service: "masstree", LoadFrac: 0.25},
						{Service: "xapian", LoadFrac: 0.3},
					},
				},
			},
		},
		"diurnal": {
			Name:        "diurnal",
			Description: "three cellular-style cells with phase-shifted day/night sinusoids plus a harmonic, so load migrates between nodes as users move",
			Gen:         GenDiurnal,
			DurationS:   3600,
			Classes: []NodeClass{
				{
					Name: "cell", Count: 3, Burstiness: 0.5,
					Mix: []ServiceMix{{Service: "masstree", LoadFrac: 0.5}, {Service: "moses", LoadFrac: 0.4}},
				},
			},
		},
	}
}

// Names lists the built-in scenario presets, sorted.
func Names() []string {
	ps := presets()
	out := make([]string, 0, len(ps))
	for n := range ps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Named returns a built-in preset by name.
func Named(name string) (Spec, error) {
	if s, ok := presets()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, Names())
}

// MustNamed is Named for known-good names; it panics otherwise.
func MustNamed(name string) Spec {
	s, err := Named(name)
	if err != nil {
		panic(err)
	}
	return s
}
