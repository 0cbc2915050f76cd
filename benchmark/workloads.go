package main

import (
	"math"
	"math/rand"
	"strings"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// programSeed seeds every random stream inside the program: simulator
// arrivals and measurement noise, fault schedules, network
// initialisation and exploration. The benchmark's --seed makes only the
// workload's inputs (offered-load traces, load fractions, the sweep
// controller's requests); the program receives the generated inputs and
// nothing else of the seed. Two seeds therefore give two trajectories
// of the same experiment, not two experiments: the simulated outcome
// (QoS, energy, allocations) stays comparable across the seeds a result
// set is made of, while a run still repeats exactly for its seed.
const programSeed = 1

// loadJitter is the seeded variation of offered load around a
// workload's base: second by second on the patterns, once per replica
// on the fleet's fixed load fractions.
const loadJitter = 0.02

// jitterTrace samples n seconds of a base pattern, each scaled by a
// seeded factor within ±loadJitter, as a looping trace.
func jitterTrace(base loadgen.Pattern, n int, in *rand.Rand) *loadgen.Trace {
	rps := make([]float64, n)
	for t := range rps {
		rps[t] = base.RPS(t) * (1 + loadJitter*(2*in.Float64()-1))
	}
	return loadgen.NewTrace(rps, true)
}

// env is everything a workload is built from: the seed its inputs are
// made from, its size, a scratch directory inside the checkout, and the
// tracer (nil on the untraced run).
type env struct {
	seed      int64
	intervals int
	tmpDir    string
	tr        *tracer
}

// world is one built workload, ready to issue its first interval.
type world interface {
	// run drives the program's own loop in a closed loop with one
	// client: the next interval is issued when the previous returns.
	run(rec *recorder)
	// finish runs the end-of-run output checks (outside the timed
	// phase) and returns what they found wrong, the failed-interval
	// count the program's own loop recorded (recovered decide panics,
	// rejected assignments, Step errors), and the deterministic event
	// counters of the layers the workload ran — named as their
	// per-layer metrics.
	finish(rec *recorder) (problems []string, loopFailures int, events map[string]float64)
	// layers adds the traced run's per-layer metrics to out: what the
	// spans and the live counters show, and the probes of the layers the
	// loop hides. It returns what the probes found wrong.
	layers(rec *recorder, out map[string]float64) (problems []string)
}

// workload is one entry of the benchmark's fixed set.
type workload struct {
	name string
	why  string
	// perSecond sizes the run from --seconds: the interval count is
	// fixed by (workload, seconds) so the simulated outcome and the
	// digest repeat exactly for a seed. It was chosen on the 2-core
	// reference host at the commit that added the benchmark so that
	// the timed phase lasts about --seconds there.
	perSecond float64
	// quantum rounds the interval count (the daemon's churn cycle).
	quantum int
	// services lists every profile the run will meet, so set-up calibrates
	// them all and none is calibrated inside an interval; power says
	// whether it also fits their Eq. 2 power models (Twig managers need
	// them).
	services []string
	power    bool
	build    func(e env) (world, error)
}

var workloads = []workload{
	{
		name:      "node_paper_twigc",
		why:       "Table III workload: paper-scale Twig-C over masstree+moses; bdq/nn/mat training is ~97% of the interval, so a GEMM, Adam or pool change shows here and a simulator change must not",
		perSecond: 75,
		quantum:   1,
		services:  []string{"masstree", "moses"},
		power:     true,
		build:     buildNodePaper,
	},
	{
		name:      "node_sim_sweep",
		why:       "agentic-burst pod under a microsecond controller drawing a fresh placement every interval: sim.Server.Step and the experiments.Run loop do all the work, GEMM work shows nothing",
		perSecond: 2500,
		quantum:   1,
		services:  []string{"memcached", "masstree", "xapian"},
		build:     buildNodeSweep,
	},
	{
		name:      "daemon_quick_churn",
		why:       "production path: daemon.Engine.Step with guard, admit/reload/drain/delete churn, controller rebuilds, lone-member pooled agent at tiny shapes and checkpoint marshal + async disk writes",
		perSecond: 400,
		quantum:   2000,
		services:  []string{"masstree", "xapian", "moses"},
		power:     true,
		build:     buildDaemonChurn,
	},
	{
		name:      "fleet_quick_chaos",
		why:       "4-node fleet under the chaos fault schedule: grouped select/train GEMMs across members, in-memory snapshots and warm/cold restores, leases, shedding and placement",
		perSecond: 90,
		quantum:   1,
		services:  []string{"masstree", "xapian", "img-dnn", "moses"},
		power:     true,
		build:     buildFleetChaos,
	},
}

// workloadNames lists the workloads for usage and error messages.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// intervalsFor turns --seconds into the workload's interval count.
func (w workload) intervalsFor(seconds int) int {
	n := int(math.Round(w.perSecond * float64(seconds)))
	if w.quantum > 1 {
		n = (n + w.quantum/2) / w.quantum * w.quantum
	}
	if n < w.quantum {
		n = w.quantum
	}
	return n
}

// prime runs, through the experiments caches, the calibration the
// workload's services need: the Table II QoS targets and, for Twig
// managers, the Eq. 2 profiling campaign and fit. The caches are per
// process and cannot be emptied from outside, so only the first set-up
// of a process pays this.
func prime(names []string, power bool) {
	for _, n := range names {
		experiments.QoSTarget(n)
		if power {
			experiments.PowerModelFor(n)
		}
	}
}
