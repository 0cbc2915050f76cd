package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// childSetups starts it (TestSetupInChild).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// smokeIntervals sizes the smoke runs: long enough that every workload
// trains (the paper-scale batch is 64), churns through one admission
// cycle with a checkpoint to reload, or loses a node to the chaos
// schedule, short enough for tier-1.
var smokeIntervals = map[string]int{
	"node_paper_twigc":   72,
	"node_sim_sweep":     200,
	"daemon_quick_churn": 120,
	"fleet_quick_chaos":  48,
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload three times at smoke size: traced from
// seed 1 (which itself runs the workload twice from that seed and
// reports any difference in digest, QoS, energy or event counts, and
// any malformed span tree, as a problem), and untraced from seed 2. The
// subtests run one after the other: the recorder owns the process's GC
// setting during a timed phase.
func TestSmoke(t *testing.T) {
	probeWarm, probeCalls = 1, 3
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := smokeIntervals[w.name]
			traced, err := runWorkload(w, options{seed: 1, intervals: n, trace: t.TempDir() + "/spans.json", setupFrom: nowNs()}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			other, err := runWorkload(w, options{seed: 2, intervals: n, trace: "0", setupFrom: nowNs()}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []record{traced, other} {
				if !r.Correct || r.Failed != 0 || r.Attempted != n {
					t.Errorf("seed %d: correct %v, failed %d of %d attempted: %v", r.Seed, r.Correct, r.Failed, r.Attempted, r.Problems)
				}
			}
			if traced.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 gave the same digest %s", traced.Digest)
			}
			checkMetrics(t, other.Metrics, endToEndMetrics, true)
			checkMetrics(t, traced.Metrics, perLayerMetrics, false)
			for name, raw := range other.Raw {
				if v := other.Metrics[name].Value; math.Abs(raw/v-1) > 1 || raw <= 0 {
					t.Errorf("%s: raw %v beside normalised %v", name, raw, v)
				}
			}
			if len(other.Raw) != 5 || len(other.SetupSamples) != 1 {
				t.Errorf("%d raw timings and %d set-up samples, want 5 and 1", len(other.Raw), len(other.SetupSamples))
			}
			if traced.Metrics["trace.spans"].Value < float64(n) {
				t.Errorf("traced run recorded %v spans over %d intervals", traced.Metrics["trace.spans"].Value, n)
			}
			if _, err := os.Stat(traced.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestSetupInChild times one set-up in a fresh process, the way a run
// samples setup_s, with the test binary standing in for the benchmark.
func TestSetupInChild(t *testing.T) {
	w, _ := findWorkload("node_paper_twigc")
	t.Chdir(t.TempDir()) // the child writes its scratch under ./.bench_build
	got, err := childSetups(w, options{seed: 1, seconds: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].RawS <= 0 || got[0].HostSlowdown <= 0 {
		t.Fatalf("child set-up reported %+v", got)
	}
	r := record{Raw: map[string]float64{}, Metrics: map[string]value{}}
	r.addSetups([]setupSample{{RawS: 3, HostSlowdown: 1.5}})
	r.addSetups([]setupSample{got[0], {RawS: 1, HostSlowdown: 1}})
	lo, hi := 1.0, 2.0
	if v := r.Metrics["setup_s"].Value; len(r.SetupSamples) != 3 || v < lo || v > hi || r.Raw["setup_s"] < 1 || r.Raw["setup_s"] > 3 {
		t.Errorf("setup_s %v (raw %v) from %+v", v, r.Raw["setup_s"], r.SetupSamples)
	}
}

// TestRecorderKeepsHeapResident drives a recorder over a loop that grows
// its live heap: the collection rule must fire, and with prefault on the
// heap must have been made resident up to the next trigger by
// collections that are not counted as the loop's.
func TestRecorderKeepsHeapResident(t *testing.T) {
	r := newRecorder(64, true)
	r.begin()
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<20))
		r.tick()
	}
	r.end()
	if len(keep) != 64 || len(r.samples) != 64-warmIntervals || r.wallNs <= 0 {
		t.Fatalf("%d samples over %d ns", len(r.samples), r.wallNs)
	}
	if r.gcCycles == 0 || r.ownGCs == 0 {
		t.Errorf("%d collections by the rule, %d to keep the heap resident", r.gcCycles, r.ownGCs)
	}
	if r.resident < 2*r.liveAfterGC+r.burst || r.liveAfterGC < 32<<20 || r.burst < 1<<20 {
		t.Errorf("resident up to %d bytes with %d live after the last collection", r.resident, r.liveAfterGC)
	}
	if r.peakHeap < 64<<20 {
		t.Errorf("peak heap %d bytes", r.peakHeap)
	}
}

// checkMetrics verifies a run reports exactly the metrics of a table,
// each with a legal name, the table's unit and a finite value.
func checkMetrics(t *testing.T, got map[string]value, table []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(table) {
		t.Errorf("run reports %d metrics, table has %d", len(got), len(table))
	}
	for _, m := range table {
		v, ok := got[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", m.name)
		case !legalName.MatchString(m.name) || !legalUnit.MatchString(v.Unit) || v.Unit != m.unit:
			t.Errorf("metric %s: illegal name or unit %q (table says %q)", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("end-to-end metric %s is 0", m.name)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repo root to the tables
// the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.name || d.Why != w.why || len(w.why) > 200 || !legalName.MatchString(w.name) {
			t.Errorf("workload %d: %q / %q differs from the program's %q", i, d.Name, d.Why, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) || len(doc.PerLayer) != len(perLayerMetrics) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, program has %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range endToEndMetrics {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound || m.bound > 0.25 || seen[m.name] {
			t.Errorf("end-to-end metric %d: %+v differs from the program's %+v", i, d, m)
		}
		seen[m.name] = true
	}
	for i, m := range perLayerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || seen[m.name] ||
			!legalName.MatchString(m.name) || !legalUnit.MatchString(m.unit) {
			t.Errorf("per-layer metric %d: %+v differs from the program's %+v", i, d, m)
		}
		seen[m.name] = true
		if m.moves == "" {
			continue
		}
		metric, workload, _ := strings.Cut(m.moves, "@")
		if _, ok := findWorkload(workload); !ok || !seen[metric] || strings.Contains(metric, ".") {
			t.Errorf("per-layer metric %s should move %q: not an end-to-end metric on a workload", m.name, m.moves)
		}
	}
}

// TestCompareDigest: a digest that changed for a seed fails -compare
// unless the change is declared.
func TestCompareDigest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string) string {
		m := tabulate(endToEndMetrics, map[string]float64{"interval_ms_p50": 2, "qos_guarantee": 0.3})
		set := resultSet{Schema: 1, Records: []record{{Workload: "node_sim_sweep", Seed: 1, Attempted: 10, Correct: true, Digest: digest, Metrics: m}}}
		blob, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, changed := write("a.json", "aa"), write("same.json", "aa"), write("changed.json", "bb")
	if code := compareFiles(a, same, false); code != 0 {
		t.Errorf("equal sets: exit %d", code)
	}
	if code := compareFiles(a, changed, false); code != 1 {
		t.Errorf("changed digest, not declared: exit %d, want 1", code)
	}
	if code := compareFiles(a, changed, true); code != 0 {
		t.Errorf("changed digest, declared: exit %d, want 0", code)
	}
}

// TestQuartiles checks against values of Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 7, 3, 8, 2, 9, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 7, 3, 8, 2, 9, 4, 6, 5}); s != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "interval_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "intervals_per_s", better: "higher", bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		m        metricDef
		old, cur []float64
		want     string
	}{
		{lower, tight, []float64{104, 105, 103, 104, 106}, "ok"},
		{lower, tight, []float64{120, 121, 119, 120, 122}, "regressed"},
		{higher, tight, []float64{80, 81, 79, 80, 82}, "regressed"},
		{higher, tight, []float64{120, 121, 119, 120, 122}, "ok"},
		// Spread wider than the bound: overlapping runs resolve nothing,
		// disjoint runs do.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{160, 200, 240, 180, 220}, "regressed"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
	}
	for i, c := range cases {
		if _, got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestTracerValidate(t *testing.T) {
	tr := newTracer(4)
	a := tr.begin("interval", 0)
	b := tr.begin("core.decide", 0)
	tr.end(b)
	tr.end(a)
	if err := tr.validate(); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if self := tr.selfTimes(); self[a] != (tr.spans[a].End-tr.spans[a].Start)-(tr.spans[b].End-tr.spans[b].Start) {
		t.Errorf("self time of the parent is %d", self[a])
	}
	tr.spans[b].End = tr.spans[a].End + 1 // child outlives its parent
	if err := tr.validate(); err == nil {
		t.Error("child outside its parent accepted")
	}
	open := newTracer(1)
	open.begin("interval", 0)
	if err := open.validate(); err == nil {
		t.Error("unended span accepted")
	}
}

func TestIntervalsFor(t *testing.T) {
	daemon, _ := findWorkload("daemon_quick_churn")
	for seconds, want := range map[int]int{1: 2000, 15: 6000, 20: 8000, 22: 8000, 23: 10000} {
		if got := daemon.intervalsFor(seconds); got != want {
			t.Errorf("daemon_quick_churn at %d s: %d intervals, want %d", seconds, got, want)
		}
	}
}
