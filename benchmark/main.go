// Command benchmark is the interval-cost benchmark: it drives the real
// program loops (experiments.Run, daemon.Engine.Step,
// cluster.Coordinator.Step) in a closed loop with one client and prints
// what one control interval costs, end to end and layer by layer. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
// Usage:
//
//	go run ./benchmark -workload node_paper_twigc -seed 1            # end-to-end metrics
//	go run ./benchmark -workload node_sim_sweep -seed 1 -trace 1     # per-layer metrics + span file
//	go run ./benchmark -all -runs 10 -out new.json                   # every workload, each in its own process
//	go run ./benchmark -compare old.json new.json                    # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

var processStart = time.Now()

// nowNs is a monotonic clock in ns since process start.
func nowNs() int64 { return int64(time.Since(processStart)) }

// buildDir is the only place the benchmark writes: scratch checkpoints
// and span files, relative to the directory it is run from.
const buildDir = ".bench_build"

// setupChildren is how many further set-ups an untraced run times, each
// in a fresh process of its own; setup_s is the median of them and the
// run's own.
const setupChildren = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	// prefault keeps the heap resident ahead of the program (see
	// recorder.collect). The command line always does; the package's smoke
	// tests, where timings mean nothing, do not.
	prefault bool
	// intervals, when not 0, replaces the interval count -seconds gives.
	// Only the package's smoke tests set it.
	intervals int
	// setupFrom is the instant (nowNs) set-up is timed from: 0, process
	// start, on the command line.
	setupFrom int64
	// atSetup, when set, is handed the run's own set-up sample the moment
	// set-up is over. A -setup-only process prints it and exits there.
	atSetup func(setupSample)
}

func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is made from")
	flag.IntVar(&o.seconds, "seconds", 15, "run length; fixes the interval count per workload")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1 or a file path: repeat the run traced, print per-layer metrics, write the spans")
	all := flag.Bool("all", false, "run every workload, each in its own process")
	runs := flag.Int("runs", 1, "with -all: runs per workload, seeds seed..seed+runs-1")
	out := flag.String("out", "", "with -all: write the result set to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two result sets: -compare old.json new.json")
	digestChange := flag.Bool("digest-change", false, "with -compare: the change is declared to alter the simulated trajectory, so changed digests do not fail")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print how long that took and exit (a run starts this to sample setup_s)")
	flag.Parse()
	o.prefault = true

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare [-digest-change] old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *digestChange))
	case *all:
		os.Exit(runAll(o, *runs, *out))
	default:
		w, ok := findWorkload(o.workload)
		if !ok {
			fatalf("unknown workload %q (one of %s)", o.workload, workloadNames())
		}
		if o.seconds < 1 {
			fatalf("-seconds must be at least 1")
		}
		tmp, err := scratchDir()
		if err != nil {
			fatalf("%v", err)
		}
		if *setupOnly {
			o.atSetup = func(s setupSample) {
				os.RemoveAll(tmp)
				json.NewEncoder(os.Stdout).Encode(s)
				os.Exit(0)
			}
		}
		rec, err := runWorkload(w, o, tmp)
		os.RemoveAll(tmp)
		if err == nil && !rec.Traced {
			var more []setupSample
			more, err = childSetups(w, o, setupChildren)
			rec.addSetups(more)
		}
		if err != nil {
			fatalf("%v", err)
		}
		// A run that printed its result line exits 0: whether the output
		// checks passed is the line's `correct`.
		rec.print()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// scratchDir makes a private directory under buildDir.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "tmp-")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupSample is one timed set-up: host seconds from the start of the
// process to the start of the timed phase — QoS calibration and
// power-model fits (once per process, in the experiments caches), trace
// generation, construction of server, manager, engine or coordinator,
// and the warm-up intervals, all through the program's own path — and
// how slow the host ran meanwhile (see hostref.go).
type setupSample struct {
	RawS         float64 `json:"raw_s"`
	HostSlowdown float64 `json:"host_slowdown"`
}

// record is everything one run of one workload reports.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Intervals int       `json:"intervals"`
	Traced    bool      `json:"traced"`
	Prefault  bool      `json:"prefault"`
	Host      hostStamp `json:"host"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Digest is the SHA-256 of the per-interval trajectory; Events are
	// the deterministic event counters of the layers the workload ran.
	// Both repeat exactly for a (workload, seed, interval count).
	Digest   string             `json:"digest"`
	Events   map[string]float64 `json:"events"`
	Problems []string           `json:"problems,omitempty"`
	// Samples is the number of per-interval host-time samples the
	// percentiles were taken over.
	Samples int `json:"samples"`
	// HostSlowdown is how much slower than nominal this host's core ran
	// during the timed phase (the reference kernel's median over
	// refNominalNs, RefSamples samples). The end-to-end timings in Metrics
	// have been divided by it; Raw holds them as the host's clock read
	// them.
	HostSlowdown float64            `json:"host_slowdown"`
	RefSamples   int                `json:"ref_samples"`
	Raw          map[string]float64 `json:"raw_timings,omitempty"`
	// SetupSamples are the set-ups setup_s is the median of: the run's own
	// first, then one per child process.
	SetupSamples []setupSample `json:"setup_samples,omitempty"`
	// MinorFaults is the page faults the timed phase took.
	MinorFaults int64            `json:"minor_faults"`
	Metrics     map[string]value `json:"metrics"`
	TraceFile   string           `json:"trace_file,omitempty"`
}

// addSetups adds set-up samples and reports their median as setup_s, in
// reference-host time like every timing, and raw.
func (r *record) addSetups(more []setupSample) {
	r.SetupSamples = append(r.SetupSamples, more...)
	raw := make([]float64, len(r.SetupSamples))
	norm := make([]float64, len(r.SetupSamples))
	for i, s := range r.SetupSamples {
		raw[i], norm[i] = s.RawS, s.RawS/s.HostSlowdown
	}
	_, r.Raw["setup_s"], _ = quartiles(raw)
	_, med, _ := quartiles(norm)
	r.Metrics["setup_s"] = value{med, "s"}
}

// print writes the human-readable table to stderr and, on stdout, the
// full record followed by the driver's result line (last).
func (r record) print() {
	fmt.Fprintf(os.Stderr, "workload %s  seed %d  intervals %d  samples %d  traced %v  prefault %v\n", r.Workload, r.Seed, r.Intervals, r.Samples, r.Traced, r.Prefault)
	h := r.Host
	fmt.Fprintf(os.Stderr, "host: nproc %d, %s, gemm %s (%s), %s, GOMAXPROCS %d, slowdown %.4f over %d samples\n", h.NProc, h.CPUModel, h.Kernel, h.CPUFeatures, h.GoVersion, h.GOMAXPROCS, r.HostSlowdown, r.RefSamples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, m := range perLayerMetrics {
		if m.moves != "" {
			moves[m.name] = "  -> " + m.moves
		}
	}
	for _, n := range names {
		note := moves[n]
		if raw, ok := r.Raw[n]; ok {
			note = fmt.Sprintf("  (raw %.6g)", raw)
		}
		fmt.Fprintf(os.Stderr, "  %-36s %16.6g %-8s%s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit, note)
	}
	fmt.Fprintf(os.Stderr, "digest %s\n", r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "PROBLEM: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)

	enc := json.NewEncoder(os.Stdout)
	enc.Encode(struct {
		Record record `json:"record"`
	}{r})
	enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// sampleRef takes a burst of reference samples beside a set-up, where
// there is no interval boundary to hang them on.
func sampleRef(h *hostRef) {
	for i := 0; i < 50; i++ {
		h.sample()
	}
}

// childEnv marks a process started by childSetups. The benchmark does
// not read it; the package test's TestMain does, to act as the binary.
const childEnv = "TWIG_BENCHMARK_CHILD"

// childSetups sets the workload up n more times, each in a fresh
// process of this binary (-setup-only), one after the other: the
// calibration caches are per process, so only a new one pays what the
// run's own set-up paid.
func childSetups(w workload, o options, n int) ([]setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupSample
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-setup-only")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up in a child process: %w", err)
		}
		var s setupSample
		if err := json.Unmarshal(blob, &s); err != nil || s.RawS <= 0 || s.HostSlowdown <= 0 {
			return nil, fmt.Errorf("set-up in a child process printed %q (%v)", blob, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// phase is one complete run of a workload: built, driven, checked.
type phase struct {
	w        world
	rec      *recorder
	problems []string
	failed   int
	events   map[string]float64
}

// drive runs a built world's loop under the recorder, then its output
// checks.
func drive(wld world, rec *recorder) phase {
	rec.begin()
	wld.run(rec)
	rec.end()
	problems, loopFailures, events := wld.finish(rec)
	problems = append(problems, rec.failures...)
	rec.liveHeapMB = liveHeapMB()
	return phase{w: wld, rec: rec, problems: problems, failed: rec.failed + loopFailures, events: events}
}

// runWorkload sets the workload up, drives it untraced for the
// end-to-end metrics and, when tracing is asked for, repeats it from
// the same seed with spans recorded for the per-layer metrics.
func runWorkload(w workload, o options, tmp string) (record, error) {
	n := o.intervals
	if n == 0 {
		n = w.intervalsFor(o.seconds)
	}
	traced := o.traced()
	e := env{seed: o.seed, intervals: n, tmpDir: tmp}

	// Set-up runs from here to the moment the recorder starts its clock,
	// with a burst of reference samples at either end. What the recorder
	// spent on memory work of its own until then is not set-up's.
	var setupRef hostRef
	var setup setupSample
	sampleRef(&setupRef)
	prime(w.services, w.power)
	wld, err := w.build(e)
	if err != nil {
		return record{}, err
	}
	rec := newRecorder(n, o.prefault)
	rec.onClock = func() {
		took := nowNs() - o.setupFrom - setupRef.spentNs - rec.ownWallNs
		sampleRef(&setupRef)
		setup = setupSample{RawS: float64(took) / 1e9, HostSlowdown: setupRef.slowdown()}
		if o.atSetup != nil {
			o.atSetup(setup)
		}
	}
	ph := drive(wld, rec)
	r := record{
		Workload: w.name, Seed: o.seed, Intervals: n, Traced: traced, Prefault: o.prefault, Host: readHostStamp(),
		Attempted: n, Failed: ph.failed, Digest: rec.digestHex(), Events: ph.events,
		Problems: ph.problems, Samples: len(rec.samples),
		HostSlowdown: rec.ref.slowdown(), RefSamples: len(rec.ref.samples), MinorFaults: rec.minorFaults,
	}
	e2e, raw := endToEnd(rec, ph.failed)

	if !traced {
		r.Metrics, r.Raw = e2e, raw
		r.addSetups([]setupSample{setup})
		r.Correct = len(r.Problems) == 0
		return r, nil
	}

	// Traced repeat: a fresh world from the same seed, so its digest
	// and event counters must equal the untraced run's.
	ph.w, wld = nil, nil // the untraced world is garbage by the next collection
	e.tr = newTracer(8 * n)
	wld, err = w.build(e)
	if err != nil {
		return record{}, err
	}
	tp := drive(wld, newRecorder(n, o.prefault))
	if d := tp.rec.digestHex(); d != r.Digest {
		r.Problems = append(r.Problems, fmt.Sprintf("traced repeat of seed %d diverged: digest %s, untraced %s", o.seed, d, r.Digest))
	}
	if tp.rec.qosMet != rec.qosMet || tp.rec.qosN != rec.qosN || tp.rec.energyJ != rec.energyJ {
		r.Problems = append(r.Problems, fmt.Sprintf("traced repeat of seed %d: QoS %v/%d energy %v J, untraced %v/%d and %v J",
			o.seed, tp.rec.qosMet, tp.rec.qosN, tp.rec.energyJ, rec.qosMet, rec.qosN, rec.energyJ))
	}
	for k, v := range ph.events {
		if tp.events[k] != v {
			r.Problems = append(r.Problems, fmt.Sprintf("traced repeat of seed %d: event %s = %v, untraced %v", o.seed, k, tp.events[k], v))
		}
	}
	if err := e.tr.validate(); err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	r.Problems = append(r.Problems, tp.problems...)
	var probeProblems []string
	r.Metrics, probeProblems = perLayer(e, tp, e2e)
	r.Problems = append(r.Problems, probeProblems...)
	r.Correct = len(r.Problems) == 0

	path := o.trace
	if path == "1" {
		path = filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	}
	if err := e.tr.writeJSON(path, w.name, o.seed); err != nil {
		return record{}, err
	}
	r.TraceFile = path
	return r, nil
}

// endToEnd computes the end-to-end metrics of an untraced run, all but
// setup_s (record.addSetups). Timings are in reference-host time:
// divided by the host's slowdown over the timed phase (see hostref.go);
// raw holds the same timings undivided.
func endToEnd(rec *recorder, failed int) (metrics map[string]value, raw map[string]float64) {
	slow := rec.ref.slowdown()
	n := float64(len(rec.samples)) // the timed intervals
	window := float64(rec.intervals - rec.windowFrom)
	qos := 0.0
	if rec.qosN > 0 {
		qos = rec.qosMet / float64(rec.qosN)
	}
	raw = map[string]float64{
		"intervals_per_s":     n / (float64(rec.wallNs) / 1e9),
		"interval_ms_p50":     percentile(rec.samples, 0.50) / 1e6,
		"interval_ms_p95":     percentile(rec.samples, 0.95) / 1e6,
		"cpu_ms_per_interval": float64(rec.cpuNs) / 1e6 / n,
	}
	return tabulate(endToEndMetrics, map[string]float64{
		"intervals_per_s":       raw["intervals_per_s"] * slow,
		"interval_ms_p50":       raw["interval_ms_p50"] / slow,
		"interval_ms_p95":       raw["interval_ms_p95"] / slow,
		"cpu_ms_per_interval":   raw["cpu_ms_per_interval"] / slow,
		"allocs_per_interval":   float64(rec.mallocs) / n,
		"peak_heap_mb":          float64(rec.peakHeap) / (1 << 20),
		"ok_intervals_frac":     1 - float64(failed)/float64(rec.intervals),
		"qos_guarantee":         qos,
		"energy_j_per_interval": rec.energyJ / window,
	}), raw
}

// tabulate reports exactly the metrics of a table, each with the
// table's unit; a metric no value was computed for, or whose value is
// not finite, reads 0.
func tabulate(table []metricDef, values map[string]float64) map[string]value {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v := values[m.name]
		if !isFinite(v) {
			v = 0
		}
		out[m.name] = value{v, m.unit}
	}
	return out
}
