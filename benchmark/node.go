package main

import (
	"math/rand"

	"github.com/twig-sched/twig/internal/baselines"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/service"
)

// nodeWorld is a single node driven through experiments.Run.
type nodeWorld struct {
	e        env
	srv      *sim.Server
	simCfg   sim.Config
	ctl      ctrl.Controller
	patterns []loadgen.Pattern
	// mgr is the Twig manager when the workload runs one (nil for the
	// sweep controller).
	mgr *core.Manager
	// worldsMs is set by the scenario workload: what expanding the
	// preset into worlds (trace generation) took.
	worldsMs float64
	// shadow, when set on the traced run, is fed the live observations
	// and its decisions are discarded.
	shadow *shadowParties

	sum    experiments.Summary
	sample stepSample
}

// stepSample keeps the accepted (assignment, loads, result) triples of a
// run's last stepSampleLen intervals, so the layer probes replay the
// simulator at the states the live run was in. A workload that cannot
// see one of the three from outside leaves it for layers to rebuild.
type stepSample struct {
	asgs  []sim.Assignment
	loads [][]float64
	res   []sim.StepResult
}

const stepSampleLen = 64

// addResult keeps a step result and the loads it was offered.
func (s *stepSample) addResult(res sim.StepResult) {
	loads := make([]float64, len(res.Services))
	for i := range res.Services {
		loads[i] = res.Services[i].OfferedRPS
	}
	s.loads = append(s.loads, loads)
	s.res = append(s.res, res)
}

func buildNodePaper(e env) (world, error) {
	names := []string{"masstree", "moses"}
	sc := experiments.PaperScale()
	srv := experiments.NewServer(programSeed, names...)
	mgr := experiments.NewTwig(srv, sc, programSeed, names...)
	mt := service.MustLookup("masstree").MaxLoadRPS
	mo := service.MustLookup("moses").MaxLoadRPS
	in := rand.New(rand.NewSource(e.seed))
	return &nodeWorld{
		e: e, srv: srv, simCfg: defaultSimConfig(), ctl: mgr, mgr: mgr,
		patterns: []loadgen.Pattern{
			jitterTrace(loadgen.NewStepWise(0.2*mt, 0.6*mt, 0.2, 100), e.intervals, in),
			jitterTrace(loadgen.Diurnal{MinRPS: 0.1 * mo, MaxRPS: 0.4 * mo, PeriodS: 600}, e.intervals, in),
		},
	}, nil
}

// sweepController is the benchmark-owned controller of node_sim_sweep:
// every interval it draws a fresh (cores, DVFS) request per service
// from the seed and places it with the program's mapper, the
// per-interval assignment churn Twig's exploration phase produces at a
// cost of microseconds.
type sweepController struct {
	rng    *rand.Rand
	mapper *core.Mapper
	reqs   []core.Request
}

func (c *sweepController) Name() string { return "sweep" }

func (c *sweepController) Decide(ctrl.Observation) sim.Assignment {
	n := c.mapper.NumCores()
	for i := range c.reqs {
		c.reqs[i] = core.Request{
			Cores:   1 + c.rng.Intn(n),
			FreqGHz: platform.FreqForStep(c.rng.Intn(platform.NumFreqSteps)),
		}
	}
	return c.mapper.Map(c.reqs)
}

func buildNodeSweep(e env) (world, error) {
	worlds, worldsMs, err := timedWorlds(e.seed)
	if err != nil {
		return nil, err
	}
	w := worlds[0]
	simCfg := w.SimConfig(programSeed)
	srv := sim.NewServer(simCfg, w.ServiceSpecs(programSeed, func(name string) float64 {
		return experiments.ScenQoSTarget(w, name)
	}))
	nw := &nodeWorld{
		e: e, srv: srv, simCfg: simCfg, patterns: w.Patterns(), worldsMs: worldsMs,
		ctl: &sweepController{
			rng:    rand.New(rand.NewSource(e.seed)),
			mapper: core.NewMapper(srv.ManagedCores()),
			reqs:   make([]core.Request, len(w.Services)),
		},
	}
	if e.tr != nil {
		nw.shadow = &shadowParties{
			p: baselines.NewParties(baselines.DefaultPartiesConfig(), srv.ManagedCores(), len(w.Services)),
		}
	}
	return nw, nil
}

// timedWorlds expands the agentic-burst preset from the seed and times
// the expansion (trace generation for every pod).
func timedWorlds(seed int64) ([]scenario.World, float64, error) {
	t0 := nowNs()
	worlds, err := scenario.MustNamed("agentic-burst").Worlds(seed)
	return worlds, float64(nowNs()-t0) / 1e6, err
}

// shadowParties feeds PARTIES the live observations of a run another
// controller steers and discards its decisions. It records how often
// Decide panics and what a call costs.
type shadowParties struct {
	p           *baselines.Parties
	calls       int
	panics      int
	firstPanicT int
	ns          []int64
}

func (s *shadowParties) observe(obs ctrl.Observation) {
	t0 := nowNs()
	panicked := func() (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.p.Decide(obs)
		return false
	}()
	s.ns = append(s.ns, nowNs()-t0)
	s.calls++
	if panicked {
		if s.panics == 0 {
			s.firstPanicT = obs.Time
		}
		s.panics++
	}
}

// timedController records one span per Decide and opens the span that
// covers the rest of the loop's work up to its Hook: load generation
// and sim.Server.Step.
type timedController struct {
	inner ctrl.Controller
	tr    *tracer
	step  int32 // the open sim.step span
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(obs ctrl.Observation) sim.Assignment {
	id := c.tr.begin("core.decide", obs.Time)
	defer func() {
		c.tr.end(id)
		c.step = c.tr.begin("sim.step", obs.Time)
	}()
	return c.inner.Decide(obs)
}

func (w *nodeWorld) run(rec *recorder) {
	tr := w.e.tr
	ctl := w.ctl
	var tc *timedController
	if tr != nil {
		tc = &timedController{inner: w.ctl, tr: tr}
		ctl = tc
	}
	managed := coreSet(w.srv.ManagedCores())
	numCores := len(managed)
	lo, hi := w.srv.FreqRange()
	n := w.e.intervals

	var observe int32
	interval := tr.begin("interval", 0)
	w.sum = experiments.Run(experiments.RunConfig{
		Server:       w.srv,
		Controller:   ctl,
		Patterns:     w.patterns,
		Seconds:      n,
		SummaryFromS: rec.windowFrom,
		Hook: func(t int, res sim.StepResult, asg sim.Assignment) {
			if tr != nil {
				tr.end(tc.step)
			}
			rec.checkAssignment(t, asg, managed, lo, hi)
			rec.observeStep(t, res, numCores, lo, hi)
			if t >= n-stepSampleLen {
				w.sample.asgs = append(w.sample.asgs, asg)
				w.sample.addResult(res)
			}
			observe = tr.begin("experiments.observe", t)
		},
		AfterInterval: func(t int, obs ctrl.Observation, _ sim.Assignment) {
			tr.end(observe)
			if w.shadow != nil {
				id := tr.begin("baselines.parties", t)
				w.shadow.observe(obs)
				tr.end(id)
			}
			tr.end(interval)
			rec.tick()
			if t+1 < n {
				interval = tr.begin("interval", t+1)
			}
		},
	})
}

func (w *nodeWorld) finish(rec *recorder) ([]string, int, map[string]float64) {
	ev := map[string]float64{
		"experiments.decide_panics": float64(w.sum.DecidePanics),
		"experiments.step_errors":   float64(w.sum.StepErrors),
		"sim.requests_per_interval": float64(rec.completed) / float64(rec.intervals),
		// Core-set changes over the final third, as the loop counts them.
		"core.migrations_per_kinterval": 1000 * float64(w.sum.Migrations) / float64(rec.intervals-rec.windowFrom),
	}
	if w.mgr != nil {
		learningState(w.mgr, ev)
	}
	return nil, w.sum.DecidePanics + w.sum.StepErrors, ev
}
