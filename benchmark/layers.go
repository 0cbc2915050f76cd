package main

import (
	"math"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// metricDef is one named metric with its unit and direction. bound is
// the share of the parent's median an end-to-end metric may worsen by;
// moves names, for a per-layer metric, the end-to-end metric and the
// workload it should move first ("metric@workload").
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them, measured with tracing off. BENCHMARK.json
// repeats this table (the package test checks they agree).
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "intervals_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "interval_ms_p50", unit: "ms", better: "lower", bound: 0.15},
	{name: "interval_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_interval", unit: "ms", better: "lower", bound: 0.15},
	{name: "allocs_per_interval", unit: "count", better: "lower", bound: 0.02},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "ok_intervals_frac", unit: "ratio", better: "higher", bound: 0.001},
	{name: "qos_guarantee", unit: "ratio", better: "higher", bound: 0.2},
	{name: "energy_j_per_interval", unit: "J", better: "lower", bound: 0.03},
}

// perLayerMetrics are the traced run's metrics, layer = module name. A
// workload reports 0 for a layer it does not run. Each names the
// end-to-end metric and workload a change to it should show on first
// (README.md has the full interaction table). Those that name none are
// below 1 % of every interval (bdq.select_us_p50, mat.gemm_b1_gflops),
// a shadow probe whose decisions are discarded (baselines.*), or the
// benchmark's own (trace.*).
var perLayerMetrics = []metricDef{
	{name: "experiments.interval_ms_p99", unit: "ms", better: "lower", moves: "interval_ms_p95@node_paper_twigc"},
	{name: "experiments.loop_self_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "experiments.decide_panics", unit: "count", better: "lower", moves: "ok_intervals_frac@node_sim_sweep"},
	{name: "experiments.step_errors", unit: "count", better: "lower", moves: "ok_intervals_frac@node_sim_sweep"},
	{name: "loadgen.rps_ns_per_call", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "scenario.worlds_ms", unit: "ms", better: "lower", moves: "setup_s@node_sim_sweep"},
	{name: "sim.step_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.step_us_p99", unit: "us", better: "lower", moves: "interval_ms_p95@node_sim_sweep"},
	{name: "sim.step_share", unit: "ratio", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.step_allocs", unit: "count", better: "lower", moves: "allocs_per_interval@node_sim_sweep"},
	{name: "sim.step_alloc_kb", unit: "KB", better: "lower", moves: "peak_heap_mb@node_sim_sweep"},
	{name: "sim.requests_per_interval", unit: "count", better: "higher", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.validate_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.service_run_us", unit: "us", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.interference_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.pmc_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "sim.power_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "ctrl.observe_ns_p50", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "ctrl.guard_overhead_us", unit: "us", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "ctrl.guard_interventions", unit: "count", better: "lower", moves: "qos_guarantee@daemon_quick_churn"},
	{name: "core.decide_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "core.decide_us_p99", unit: "us", better: "lower", moves: "interval_ms_p95@node_paper_twigc"},
	{name: "core.decide_share", unit: "ratio", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "core.monitor_observe_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "core.mapper_map_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@node_sim_sweep"},
	{name: "core.migrations_per_kinterval", unit: "count", better: "lower", moves: "qos_guarantee@node_paper_twigc"},
	{name: "bdq.observe_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "bdq.select_us_p50", unit: "us", better: "lower"},
	{name: "bdq.forward_us", unit: "us", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "bdq.backward_us", unit: "us", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "bdq.train_steps_per_interval", unit: "count", better: "higher", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "bdq.pool_flush_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "bdq.pool_select_us_per_agent", unit: "us", better: "lower", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "bdq.pool_train_us_per_agent", unit: "us", better: "lower", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "bdq.params", unit: "count", better: "lower", moves: "peak_heap_mb@node_paper_twigc"},
	{name: "bdq.epsilon_final", unit: "ratio", better: "lower", moves: "qos_guarantee@node_paper_twigc"},
	{name: "bdq.loss_final", unit: "loss", better: "lower", moves: "qos_guarantee@node_paper_twigc"},
	{name: "replay.add_ns", unit: "ns", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "replay.sample_us", unit: "us", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "replay.update_prio_us", unit: "us", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "replay.fill", unit: "count", better: "higher", moves: "peak_heap_mb@daemon_quick_churn"},
	{name: "nn.adam_step_us", unit: "us", better: "lower", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "mat.gemm_fwd_gflops", unit: "GFLOP/s", better: "higher", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "mat.gemm_bwd_gflops", unit: "GFLOP/s", better: "higher", moves: "interval_ms_p50@node_paper_twigc"},
	{name: "mat.gemm_b1_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "mat.grouped_gflops", unit: "GFLOP/s", better: "higher", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "checkpoint.marshal_ms", unit: "ms", better: "lower", moves: "interval_ms_p95@fleet_quick_chaos"},
	{name: "checkpoint.unmarshal_ms", unit: "ms", better: "lower", moves: "interval_ms_p95@fleet_quick_chaos"},
	{name: "checkpoint.bytes", unit: "B", better: "lower", moves: "peak_heap_mb@fleet_quick_chaos"},
	{name: "checkpoint.save_ms", unit: "ms", better: "lower", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "checkpoint.writes", unit: "count", better: "higher", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "checkpoint.superseded_frac", unit: "ratio", better: "lower", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "daemon.step_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@daemon_quick_churn"},
	{name: "daemon.step_us_p99", unit: "us", better: "lower", moves: "interval_ms_p95@daemon_quick_churn"},
	{name: "daemon.ckpt_step_extra_us", unit: "us", better: "lower", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "daemon.rebuild_step_us", unit: "us", better: "lower", moves: "intervals_per_s@daemon_quick_churn"},
	{name: "daemon.api_us_p50", unit: "us", better: "lower", moves: "intervals_per_s@daemon_quick_churn"},
	{name: "daemon.checkpoint_now_ms", unit: "ms", better: "lower", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "daemon.placement_failures", unit: "count", better: "lower", moves: "qos_guarantee@daemon_quick_churn"},
	{name: "daemon.transitions", unit: "count", better: "higher", moves: "intervals_per_s@daemon_quick_churn"},
	{name: "daemon.weight_reloads", unit: "count", better: "higher", moves: "qos_guarantee@daemon_quick_churn"},
	{name: "daemon.loop_failures", unit: "count", better: "lower", moves: "ok_intervals_frac@daemon_quick_churn"},
	{name: "metrics.render_us", unit: "us", better: "lower", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "metrics.families", unit: "count", better: "higher", moves: "cpu_ms_per_interval@daemon_quick_churn"},
	{name: "cluster.step_us_p50", unit: "us", better: "lower", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "cluster.step_us_p99", unit: "us", better: "lower", moves: "interval_ms_p95@fleet_quick_chaos"},
	{name: "cluster.snapshot_step_extra_us", unit: "us", better: "lower", moves: "interval_ms_p95@fleet_quick_chaos"},
	{name: "cluster.failover_step_ms_max", unit: "ms", better: "lower", moves: "intervals_per_s@fleet_quick_chaos"},
	{name: "cluster.node_steps_per_interval", unit: "count", better: "higher", moves: "interval_ms_p50@fleet_quick_chaos"},
	{name: "cluster.warm_restores", unit: "count", better: "higher", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.cold_restores", unit: "count", better: "lower", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.migrations", unit: "count", better: "lower", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.dark_intervals", unit: "count", better: "lower", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.shed_intervals", unit: "count", better: "lower", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.placement_fails", unit: "count", better: "lower", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.snapshots_taken", unit: "count", better: "lower", moves: "interval_ms_p95@fleet_quick_chaos"},
	{name: "cluster.snapshot_used_frac", unit: "ratio", better: "higher", moves: "qos_guarantee@fleet_quick_chaos"},
	{name: "cluster.summary_us", unit: "us", better: "lower", moves: "cpu_ms_per_interval@fleet_quick_chaos"},
	{name: "cluster.invariant_errors", unit: "count", better: "lower", moves: "ok_intervals_frac@fleet_quick_chaos"},
	{name: "cluster.loop_failures", unit: "count", better: "lower", moves: "ok_intervals_frac@fleet_quick_chaos"},
	{name: "baselines.parties_decide_us_p50", unit: "us", better: "lower"},
	{name: "baselines.parties_panic_frac", unit: "ratio", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "intervals_per_s@fleet_quick_chaos"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower", moves: "intervals_per_s@fleet_quick_chaos"},
	{name: "go.live_heap_mb_end", unit: "MB", better: "lower", moves: "peak_heap_mb@fleet_quick_chaos"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// perLayer assembles the traced run's metrics: the deterministic event
// counters, what the spans show, and the layer probes. Shares are the
// layer's median over the median interval of the same (traced) run.
func perLayer(e env, tp phase, e2e map[string]value) (map[string]value, []string) {
	rec := tp.rec
	out := make(map[string]float64, len(perLayerMetrics))
	for k, v := range tp.events {
		out[k] = v
	}
	out["go.gc_cycles"] = float64(rec.gcCycles)
	out["go.gc_pause_ms_total"] = float64(rec.gcPauseNs) / 1e6
	out["go.live_heap_mb_end"] = rec.liveHeapMB
	tracedIPS := float64(len(rec.samples)) / (float64(rec.wallNs) / 1e9) * rec.ref.slowdown()
	out["trace.overhead_frac"] = 1 - tracedIPS/e2e["intervals_per_s"].Value
	out["trace.spans"] = float64(len(e.tr.spans))

	problems := tp.w.layers(rec, out)

	// A fleet interval steps several nodes' simulators.
	steps := 1.0
	if v, ok := out["sim.steps_per_interval"]; ok {
		steps = v
	}
	p50us := percentile(rec.samples, 0.5) / 1e3
	if v, ok := out["sim.step_us_p50"]; ok {
		out["sim.step_share"] = steps * v / p50us
	}
	if v, ok := out["core.decide_us_p50"]; ok {
		out["core.decide_share"] = v / p50us
	}

	return tabulate(perLayerMetrics, out), problems
}

func p50us(ns []int64) float64 { return percentile(ns, 0.5) / 1e3 }
func p99us(ns []int64) float64 { return percentile(ns, 0.99) / 1e3 }

// learningState reads a manager's end-of-run learning health.
func learningState(mgr *core.Manager, out map[string]float64) {
	a := mgr.Agent()
	out["bdq.epsilon_final"] = a.Epsilon()
	out["bdq.loss_final"] = mgr.LastLoss()
	out["replay.fill"] = float64(a.ReplayLen())
	out["bdq.train_steps_per_interval"] = trainStepsPerInterval(a.ReplayLen(), a.Config())
}

func (w *nodeWorld) layers(rec *recorder, out map[string]float64) []string {
	tr := w.e.tr
	out["experiments.interval_ms_p99"] = percentile(rec.samples, 0.99) / 1e6
	out["experiments.loop_self_us_p50"] = p50us(tr.selfDurations("interval"))
	step, decide := tr.durations("sim.step"), tr.durations("core.decide")
	out["sim.step_us_p50"], out["sim.step_us_p99"] = p50us(step), p99us(step)
	out["core.decide_us_p50"], out["core.decide_us_p99"] = p50us(decide), p99us(decide)
	if w.worldsMs > 0 {
		out["scenario.worlds_ms"] = w.worldsMs
	}
	loadgenProbe(w.patterns, out)
	simProbes(w.simCfg, specsOf(w.srv), w.sample, true, out)
	ctrlProbes(w.srv, w.sample, out)
	if w.mgr != nil {
		agentProbes(w.mgr.Agent(), w.sample, out)
	}
	if s := w.shadow; s != nil && s.calls > 0 {
		out["baselines.parties_decide_us_p50"] = p50us(s.ns)
		out["baselines.parties_panic_frac"] = float64(s.panics) / float64(s.calls)
	}
	return nil
}

func (w *daemonWorld) layers(rec *recorder, out map[string]float64) []string {
	tr := w.e.tr
	steps := tr.durations("daemon.step")
	out["daemon.step_us_p50"], out["daemon.step_us_p99"] = p50us(steps), p99us(steps)
	out["daemon.ckpt_step_extra_us"] = p50us(w.cadenceNs) - p50us(w.plainNs)
	out["daemon.rebuild_step_us"] = p50us(w.rebuildNs)
	out["daemon.api_us_p50"] = p50us(tr.durations("daemon.api"))
	out["daemon.checkpoint_now_ms"] = w.checkpointMs
	out["ctrl.guard_interventions"] = w.guardEvents

	m := w.eng.Metrics()
	writes := m.Get("twigd_checkpoint_writes_total", nil)
	dropped := m.Get("twigd_checkpoint_dropped_total", nil)
	out["checkpoint.writes"] = writes
	out["checkpoint.superseded_frac"] = dropped / math.Max(writes+dropped, 1)
	out["checkpoint.bytes"] = float64(w.ckptBytes)
	metricsProbes(m, out)
	loadgenProbe(w.patterns, out)

	// The settled membership on a server built the way the engine
	// builds its own.
	names := []string{"masstree", "xapian"}
	srv := experiments.NewServer(programSeed, names...)
	mapper := core.NewMapper(srv.ManagedCores())
	for _, res := range w.sample.res {
		asg := sim.Assignment{PerService: make([]sim.Allocation, len(res.Services))}
		for i, sv := range res.Services {
			asg.PerService[i] = sim.Allocation{Cores: make([]int, sv.NumCores), FreqGHz: sv.FreqGHz}
		}
		w.sample.asgs = append(w.sample.asgs, mapper.Map(requestsOf(asg)))
	}
	simProbes(defaultSimConfig(), specsOf(srv), w.sample, false, out)
	ctrlProbes(srv, w.sample, out)
	guardProbe(srv, w.sample, out)

	mgr := w.eng.Manager()
	learningState(mgr, out)
	poolProbes(mgr.Agent().Config(), 1, w.sample, out)
	agentProbes(mgr.Agent(), w.sample, out)
	if len(w.sample.loads) > 0 {
		decide := managerProbe(names, experiments.QuickScale(), w.sample.loads[0])
		out["core.decide_us_p50"], out["core.decide_us_p99"] = p50us(decide), p99us(decide)
	}
	if err := checkpointProbes([]checkpoint.Checkpointable{mgr}, w.e.tmpDir, out); err != nil {
		return []string{"checkpoint probe: " + err.Error()}
	}
	return nil
}

// managerProbe drives a pooled Twig manager of the given scale through
// experiments.Run at fixed loads and returns the host time of its last
// probeCalls decisions, every one of them a warm training interval.
func managerProbe(names []string, sc experiments.Scale, loads []float64) []int64 {
	srv := experiments.NewServer(programSeed, names...)
	mgr := experiments.NewTwigPooled(srv, sc, programSeed, bdq.NewPools(), names...)
	defer mgr.Close()
	tr := newTracer(2 * (2*sc.BatchSize + probeCalls))
	tc := &timedController{inner: mgr, tr: tr}
	patterns := make([]loadgen.Pattern, len(names))
	for i := range patterns {
		patterns[i] = loadgen.Fixed(loads[i])
	}
	n := 2*sc.BatchSize + probeCalls
	experiments.Run(experiments.RunConfig{
		Server: srv, Controller: tc, Patterns: patterns, Seconds: n, SummaryFromS: n - 1,
		Hook: func(int, sim.StepResult, sim.Assignment) { tr.end(tc.step) },
	})
	d := tr.durations("core.decide")
	return d[len(d)-probeCalls:]
}

func (w *fleetWorld) layers(rec *recorder, out map[string]float64) []string {
	tr := w.e.tr
	steps := tr.durations("cluster.step")
	out["cluster.step_us_p50"], out["cluster.step_us_p99"] = p50us(steps), p99us(steps)
	out["cluster.snapshot_step_extra_us"] = p50us(w.snapshotNs) - p50us(w.plainNs)
	out["cluster.failover_step_ms_max"] = percentile(w.failoverNs, 1) / 1e6
	out["bdq.pool_flush_us_p50"] = p50us(tr.durations("bdq.pool_flush"))

	// The fleet's decide time per interval: every node's prepare and
	// finish phases plus the one shared flush between them.
	decide := make([]int64, rec.intervals)
	for i := range tr.spans {
		switch s := &tr.spans[i]; s.Name {
		case "core.prepare", "core.finish", "bdq.pool_flush":
			decide[s.Interval] += s.End - s.Start
		}
	}
	out["core.decide_us_p50"], out["core.decide_us_p99"] = p50us(decide), p99us(decide)

	out["cluster.summary_us"] = medianUs(probeWarm, probeCalls, func() { w.c.Summary() })
	metricsProbes(w.c.Metrics(), out)

	// The node sampled over the last intervals: its services on a server
	// rebuilt the way the coordinator builds a world, its manager, and
	// the components its warm snapshots carry.
	ctl := w.sampled
	if ctl == nil {
		return []string{"no node decided in the last intervals: nothing to probe"}
	}
	cfg := defaultSimConfig()
	specs := ctl.specs
	srv := sim.NewServer(cfg, specs)
	for i := range w.sample.asgs {
		w.sample.res = append(w.sample.res, srv.MustStep(w.sample.asgs[i], w.sample.loads[i]))
	}
	out["sim.steps_per_interval"] = out["cluster.node_steps_per_interval"]
	simProbes(cfg, specs, w.sample, false, out)
	ctrlProbes(srv, w.sample, out)

	world := append([]checkpoint.Checkpointable{ctl.srv}, ctl.comps...)
	if err := checkpointProbes(world, "", out); err != nil {
		return []string{"checkpoint probe: " + err.Error()}
	}
	if mgr, ok := ctl.comps[0].(*core.Manager); ok {
		learningState(mgr, out)
		acfg := mgr.Agent().Config()
		members := int(math.Round(out["cluster.node_steps_per_interval"]))
		if members < 2 {
			members = 2
		}
		poolProbes(acfg, members, w.sample, out)
		agentProbes(mgr.Agent(), w.sample, out)
		k, n := widestLayer(acfg.Spec)
		matProbes(acfg.BatchSize, k, n, members, out)
	}
	return nil
}
