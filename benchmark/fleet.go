package main

import (
	"fmt"
	"math/rand"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/metrics"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

const (
	fleetNodes    = 4
	fleetReplicas = 7
)

// fleetWorld is a 4-node fleet of pooled Twig managers under the chaos
// whole-node fault schedule.
type fleetWorld struct {
	e   env
	c   *cluster.Coordinator
	rec *recorder
	t   int // the interval in flight (Coordinator.Clock locks, Step holds the lock)

	// What the node controller stacks saw, through checkedController.
	nodeDecides int
	sampled     *checkedController // the node the step sample is taken from
	sample      stepSample

	failoverNs []int64 // steps that restored a replica group, warm or cold
	failovers  float64

	snapshotNs []int64 // steps on the warm-snapshot cadence
	plainNs    []int64
	windowBase []cluster.Replica
}

func buildFleetChaos(e env) (world, error) {
	w := &fleetWorld{e: e}
	factory, flush := experiments.PooledFleetFactory(experiments.QuickScale())
	cs := faults.MustNamedCluster("chaos")
	// New outages stop early enough that every placement settles before
	// the end-of-run invariant check.
	cs.QuietAfterS = e.intervals - 150
	if cs.QuietAfterS < e.intervals/2 {
		cs.QuietAfterS = e.intervals / 2
	}
	c, err := cluster.New(cluster.Config{
		Nodes:        fleetNodes,
		NodeCapacity: 2,
		Seed:         programSeed,
		Scenario:     cs,
		MaxRetries:   4,
		Factory: func(srv *sim.Server, specs []cluster.ReplicaSpec, seed int64) (ctrl.Controller, []checkpoint.Checkpointable) {
			inner, comps := factory(srv, specs, seed)
			lo, hi := srv.FreqRange()
			return &checkedController{
				inner: inner.(ctrl.PhasedController), w: w, srv: srv, comps: comps,
				specs: specsOf(srv), loads: fleetLoads(specs),
				managed: coreSet(srv.ManagedCores()), lo: lo, hi: hi,
			}, comps
		},
		Flush: func() {
			id := e.tr.begin("bdq.pool_flush", w.t)
			flush()
			e.tr.end(id)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet_quick_chaos: %w", err)
	}
	// The replicas are the chaos mix cycled, each offered its load
	// fraction scaled by a seeded factor within ±loadJitter.
	mix := experiments.ChaosMix()
	in := rand.New(rand.NewSource(e.seed))
	for i := 0; i < fleetReplicas; i++ {
		spec := mix[i%len(mix)]
		spec.LoadFrac *= 1 + loadJitter*(2*in.Float64()-1)
		if _, err := c.Admit(spec); err != nil {
			return nil, fmt.Errorf("fleet_quick_chaos: %w", err)
		}
	}
	w.c = c
	return w, nil
}

// checkedController sits between the coordinator and one node's Twig
// manager. It checks every decision from outside (cores inside the
// node's managed set, frequency inside its DVFS range), folds it into
// the trajectory digest, and on the traced run records the decide
// phases as spans.
type checkedController struct {
	inner   ctrl.PhasedController
	w       *fleetWorld
	srv     *sim.Server                 // the node's world, and the components
	comps   []checkpoint.Checkpointable // that travel with it in a snapshot
	specs   []sim.ServiceSpec           // the node's services when this stack was built
	loads   []float64                   // and the load the coordinator offers each once running
	managed map[int]bool
	lo, hi  float64
}

func (c *checkedController) Name() string { return c.inner.Name() }

func (c *checkedController) Decide(obs ctrl.Observation) sim.Assignment {
	c.PrepareDecide(obs)
	return c.FinishDecide()
}

func (c *checkedController) PrepareDecide(obs ctrl.Observation) {
	tr := c.w.e.tr
	id := tr.begin("core.prepare", c.w.t)
	defer tr.end(id)
	c.inner.PrepareDecide(obs)
}

func (c *checkedController) FinishDecide() sim.Assignment {
	w := c.w
	t := w.t
	asg := c.finish(t)
	rec := w.rec
	rec.checkAssignment(t, asg, c.managed, c.lo, c.hi)
	for _, a := range asg.PerService {
		rec.hashInt(len(a.Cores))
		rec.hashF64(a.FreqGHz)
	}
	w.nodeDecides++
	if w.e.tr != nil && t >= w.e.intervals-stepSampleLen {
		w.sampleDecision(c, asg)
	}
	return asg
}

func (c *checkedController) finish(t int) sim.Assignment {
	tr := c.w.e.tr
	id := tr.begin("core.finish", t)
	defer tr.end(id)
	return c.inner.FinishDecide()
}

// sampleDecision keeps the decisions of one node over the last
// intervals, with the loads its replicas are offered, for the simulator
// probes.
func (w *fleetWorld) sampleDecision(c *checkedController, asg sim.Assignment) {
	if w.sampled == nil {
		w.sampled = c
	}
	if w.sampled != c || len(w.sample.asgs) >= stepSampleLen {
		return
	}
	w.sample.asgs = append(w.sample.asgs, asg)
	w.sample.loads = append(w.sample.loads, c.loads)
}

// fleetLoads is what stepWorlds offers a node's running replicas: each
// spec's fixed fraction of its profile's saturation load.
func fleetLoads(specs []cluster.ReplicaSpec) []float64 {
	loads := make([]float64, len(specs))
	for i, sp := range specs {
		loads[i] = sp.LoadFrac * service.MustLookup(sp.Service).MaxLoadRPS
	}
	return loads
}

// Close releases the wrapped manager's pooled arena slots.
func (c *checkedController) Close() {
	if cl, ok := c.inner.(ctrl.Closer); ok {
		cl.Close()
	}
}

func (w *fleetWorld) run(rec *recorder) {
	w.rec = rec
	tr := w.e.tr
	for t := 0; t < w.e.intervals; t++ {
		w.t = t
		if t == rec.windowFrom {
			w.windowBase = w.c.Replicas()
		}
		interval := tr.begin("interval", t)
		id := tr.begin("cluster.step", t)
		ss := w.c.Step()
		tr.end(id)
		rec.hashF64(ss.EnergyJ)
		if !isFinite(ss.EnergyJ) || ss.EnergyJ < 0 {
			rec.fail(t, "fleet energy %v J not finite", ss.EnergyJ)
		}
		if t >= rec.windowFrom {
			rec.energyJ += ss.EnergyJ
		}
		if tr != nil {
			dt := tr.duration(id)
			m := w.c.Metrics()
			f := m.Get("twig_cluster_failovers_total", metrics.Labels{"mode": "warm"}) +
				m.Get("twig_cluster_failovers_total", metrics.Labels{"mode": "cold"})
			switch {
			case f != w.failovers:
				w.failoverNs = append(w.failoverNs, dt)
				w.failovers = f
			case (t+1)%fleetSnapshotEvery == 0:
				w.snapshotNs = append(w.snapshotNs, dt)
			default:
				w.plainNs = append(w.plainNs, dt)
			}
		}
		tr.end(interval)
		rec.tick()
	}
}

// fleetSnapshotEvery is cluster.Config.SnapshotEvery's default, which
// the workload leaves in place.
const fleetSnapshotEvery = 10

func (w *fleetWorld) finish(rec *recorder) ([]string, int, map[string]float64) {
	sum := w.c.Summary()
	problems := experiments.ChaosInvariantErrors(sum)

	// QoS guarantee over the final third, per replica, from the carried
	// accounting: every tick is served-and-met, served-and-violated or
	// dark, and dark counts as violated. A replica that accrued no tick
	// in the window (dead-lettered before it) met nothing.
	for i, r := range w.c.Replicas() {
		base := w.windowBase[i]
		rec.qosN++
		if ticks := r.Ticks() - base.Ticks(); ticks > 0 {
			rec.qosMet += 1 - float64(r.Violations-base.Violations)/float64(ticks)
		}
		rec.hashInt(r.Intervals)
		rec.hashInt(r.Violations)
		rec.hashInt(r.DarkIntervals)
		rec.hashInt(r.Migrations)
	}

	var dark int
	for _, r := range sum.Replicas {
		dark += r.DarkIntervals
	}
	ev := map[string]float64{
		"cluster.node_steps_per_interval": float64(w.nodeDecides) / float64(rec.intervals),
		"cluster.warm_restores":           float64(sum.WarmRestores),
		"cluster.cold_restores":           float64(sum.ColdRestores),
		"cluster.migrations":              float64(sum.Migrations),
		"cluster.dark_intervals":          float64(dark),
		"cluster.shed_intervals":          float64(sum.ShedIntervals),
		"cluster.placement_fails":         float64(sum.PlacementFails),
		"cluster.snapshots_taken":         w.c.Metrics().Get("twig_cluster_snapshots_total", nil),
		"cluster.invariant_errors":        float64(len(problems)),
		"cluster.loop_failures":           float64(sum.DecidePanics + sum.StepErrors),
	}
	if s := ev["cluster.snapshots_taken"]; s > 0 {
		ev["cluster.snapshot_used_frac"] = float64(sum.WarmRestores) / s
	}
	return problems, sum.DecidePanics + sum.StepErrors, ev
}
