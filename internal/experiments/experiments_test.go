package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/twig-sched/twig/internal/baselines"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// tinyScale keeps unit tests fast: the learning behaviour is not under
// test here, only the experiment plumbing.
func tinyScale() Scale {
	sc := QuickScale()
	sc.Name = "tiny"
	sc.Spec.SharedHidden = []int{16, 12}
	sc.Spec.BranchHidden = 8
	sc.TrainPerStep = 1
	sc.Epsilon.MidStep = 60
	sc.Epsilon.EndStep = 120
	sc.PERAnnealSteps = 200
	sc.LearnS = 150
	sc.SummaryS = 50
	return sc
}

func TestRunSummaryShape(t *testing.T) {
	srv := NewServer(1, "masstree")
	static := baselines.NewStatic(srv.ManagedCores(), 1)
	sum := Run(RunConfig{
		Server:       srv,
		Controller:   static,
		Patterns:     []loadgen.Pattern{loadgen.Fixed(500)},
		Seconds:      40,
		SummaryFromS: 20,
	})
	if sum.Controller != "static" || sum.Seconds != 40 {
		t.Fatalf("summary header %+v", sum)
	}
	if len(sum.QoSGuarantee) != 1 || sum.QoSGuarantee[0] < 0 || sum.QoSGuarantee[0] > 1 {
		t.Fatalf("QoS guarantee %v", sum.QoSGuarantee)
	}
	if sum.EnergyJ <= 0 || sum.AvgPowerW <= 0 {
		t.Fatal("energy accounting")
	}
	if len(sum.Tardiness[0]) != 20 {
		t.Fatalf("tardiness samples = %d", len(sum.Tardiness[0]))
	}
	if sum.AvgCores[0] != 18 || math.Abs(sum.AvgFreqGHz[0]-2.0) > 1e-9 {
		t.Fatalf("static allocation %v %v", sum.AvgCores, sum.AvgFreqGHz)
	}
	if sum.Migrations != 0 {
		t.Fatal("static must not migrate")
	}
}

func TestRunValidation(t *testing.T) {
	srv := NewServer(1, "masstree")
	static := baselines.NewStatic(srv.ManagedCores(), 1)
	for _, bad := range []RunConfig{
		{Server: srv, Controller: static, Patterns: nil, Seconds: 10, SummaryFromS: 5},
		{Server: srv, Controller: static, Patterns: []loadgen.Pattern{loadgen.Fixed(1)}, Seconds: 10, SummaryFromS: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			Run(bad)
		}()
	}
}

func TestRunHookSeesEveryInterval(t *testing.T) {
	srv := NewServer(2, "xapian")
	static := baselines.NewStatic(srv.ManagedCores(), 1)
	n := 0
	Run(RunConfig{
		Server:       srv,
		Controller:   static,
		Patterns:     []loadgen.Pattern{loadgen.Fixed(300)},
		Seconds:      25,
		SummaryFromS: 5,
		Hook:         func(int, sim.StepResult, sim.Assignment) { n++ },
	})
	if n != 25 {
		t.Fatalf("hook saw %d intervals", n)
	}
}

func TestQoSTargetCachedAndPositive(t *testing.T) {
	a := QoSTarget("masstree")
	b := QoSTarget("masstree")
	if a != b || a <= 0 {
		t.Fatalf("QoSTarget = %v / %v", a, b)
	}
}

func TestPowerModelForProducesUsefulGradients(t *testing.T) {
	m := PowerModelFor("masstree")
	// More cores at equal load and frequency must not look cheaper.
	lo := m.Estimate(0.5, 8, 1.6)
	hi := m.Estimate(0.5, 16, 1.6)
	if hi <= lo {
		t.Fatalf("cores gradient inverted: %v vs %v", lo, hi)
	}
	// Higher DVFS at equal load must not look cheaper.
	slow := m.Estimate(0.5, 12, 1.2)
	fast := m.Estimate(0.5, 12, 2.0)
	if fast <= slow {
		t.Fatalf("frequency gradient inverted: %v vs %v", slow, fast)
	}
	if m.R2 < 0.9 {
		t.Fatalf("power model fit R² = %v, want ≥ 0.9 (paper: 0.92)", m.R2)
	}
}

func TestPairMaxFraction(t *testing.T) {
	f := PairMaxFraction("masstree", "xapian")
	if f < 0.1 || f > 1.0 {
		t.Fatalf("pair max fraction = %v", f)
	}
	if f2 := PairMaxFraction("masstree", "xapian"); f2 != f {
		t.Fatal("must be cached/deterministic")
	}
	if len(ServicePairs()) != 6 {
		t.Fatalf("pairs = %v", ServicePairs())
	}
}

func TestFig1SmallRun(t *testing.T) {
	r := Fig1("memcached", 600, 1)
	if r.Samples != 600 {
		t.Fatalf("samples = %d", r.Samples)
	}
	// The headline property: multi-PMC errors are tighter than IPC-only.
	if r.MultiPMC.ErrStdMs >= r.IPCOnly.ErrStdMs {
		t.Fatalf("multi-PMC std %v should beat IPC-only %v",
			r.MultiPMC.ErrStdMs, r.IPCOnly.ErrStdMs)
	}
	if r.ZeroErrorGain <= 1 {
		t.Fatalf("zero-error gain = %v, want > 1 (paper: ≥1.91)", r.ZeroErrorGain)
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

// TestTable3PrintsSubMicrosecondRows: a row under a microsecond — the
// mapper takes ~0.2 µs — prints in nanoseconds, not rounded to 0s; the
// rest round to the microsecond.
func TestTable3PrintsSubMicrosecondRows(t *testing.T) {
	out := Table3Result{GradientDescent: 4321987 * time.Nanosecond, PMCGather: 1500 * time.Nanosecond, Mapping: 200 * time.Nanosecond}.String()
	for _, want := range []string{"core/DVFS mapping      200ns", "gradient descent     4.322ms", "PMC gather+smooth        2µs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III renders\n%s\nwithout %q", out, want)
		}
	}
}

func TestTable1SmallRun(t *testing.T) {
	r := Table1([]string{"masstree"}, 10, 1)
	if r.Samples == 0 {
		t.Fatal("no samples gathered")
	}
	if r.Components < 1 {
		t.Fatalf("components = %d", r.Components)
	}
	seen := map[int]bool{}
	for _, rank := range r.Rank {
		if rank < 1 || rank > 11 || seen[rank] {
			t.Fatalf("ranks = %v", r.Rank)
		}
		seen[rank] = true
	}
	// At least one counter must correlate strongly with tail latency —
	// the premise of the whole paper.
	strong := false
	for _, c := range r.Corr {
		if math.Abs(c) > 0.5 {
			strong = true
		}
	}
	if !strong {
		t.Fatalf("no counter correlates with latency: %v", r.Corr)
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestFig4SmallRun(t *testing.T) {
	r := Fig4("masstree", 6, 1)
	if r.Model == nil || r.PAAE <= 0 {
		t.Fatalf("fig4 = %+v", r)
	}
	if r.PAAE > 25 {
		t.Fatalf("PAAE = %v%%, model should be a usable first-order fit", r.PAAE)
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestTable2SmallRun(t *testing.T) {
	r := Table2(20, 1)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MaxLoadRPS <= 0 || row.QoSTargetMs <= 0 {
			t.Fatalf("row %+v", row)
		}
		// The knee must land within ±40% of the calibrated maximum.
		ratio := row.MaxLoadRPS / row.PaperMaxRPS
		if ratio < 0.6 || ratio > 1.45 {
			t.Fatalf("%s knee at %.2fx of nominal max", row.Service, ratio)
		}
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestScalesDiffer(t *testing.T) {
	p, q := PaperScale(), QuickScale()
	if p.Spec.SharedHidden[0] != 512 || p.Epsilon.MidStep != 10000 || p.LearnS != 25000 {
		t.Fatalf("paper scale %+v", p)
	}
	if q.LearnS >= p.LearnS || q.Spec.SharedHidden[0] >= p.Spec.SharedHidden[0] {
		t.Fatal("quick scale must be smaller")
	}
	// Figs. 10 and 11 step their load ladder every 200 s as in the paper,
	// and every LearnS/20 (at least 10 s) on runs too short for that.
	for _, c := range []struct {
		sc   Scale
		want int
	}{{q, 200}, {ShortScale(), 10}, {p, 200}} {
		if got := ladderPeriod(c.sc); got != c.want {
			t.Errorf("%s scale: ladder period %d s, want %d", c.sc.Name, got, c.want)
		}
	}
}

// TestScalesOpenWindowAfterAnnealing holds the evaluation protocol: the
// summary window opens once ε has reached its end value (LearnS ≥
// Epsilon.EndStep), so it measures the learned policy rather than
// exploration.
func TestScalesOpenWindowAfterAnnealing(t *testing.T) {
	for _, sc := range []Scale{QuickScale(), ShortScale(), PaperScale()} {
		if sc.LearnS < sc.Epsilon.EndStep {
			t.Errorf("%s scale: LearnS %d < EndStep %d: the summary window opens while ε still anneals",
				sc.Name, sc.LearnS, sc.Epsilon.EndStep)
		}
	}
}

// TestRunDeterminism: the whole stack — simulator, PER, BDQ, controller —
// must be reproducible for a fixed seed, as DESIGN.md promises.
func TestRunDeterminism(t *testing.T) {
	sc := tinyScale()
	run := func() Summary {
		srv := NewServer(7, "masstree")
		tw := NewTwig(srv, sc, 7, "masstree")
		return Run(RunConfig{
			Server:       srv,
			Controller:   tw,
			Patterns:     []loadgen.Pattern{loadgen.Fixed(900)},
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
		})
	}
	a, b := run(), run()
	if a.EnergyJ != b.EnergyJ || a.QoSGuarantee[0] != b.QoSGuarantee[0] || a.Migrations != b.Migrations {
		t.Fatalf("runs differ: %v/%v vs %v/%v", a.EnergyJ, a.QoSGuarantee[0], b.EnergyJ, b.QoSGuarantee[0])
	}
}

// TestLearningCurvesOnShortRuns runs Figs. 7–9 over 11 intervals, fewer
// than the curves' twelve buckets: every bucket is one interval wide,
// and each figure reports that width.
func TestLearningCurvesOnShortRuns(t *testing.T) {
	sc := ShortScale()
	sc.LearnS, sc.SummaryS = 6, 5
	f7, f8, f9 := Fig7(sc, 1), Fig8(sc, 1), Fig9(sc, 1)
	if f7.BucketS != 1 || f8.BucketS != 1 || f9.BucketS != 1 {
		t.Fatalf("bucket widths %d/%d/%d s, want 1", f7.BucketS, f8.BucketS, f9.BucketS)
	}
	for name, n := range map[string]int{
		"fig7 twig-s":          len(f7.Curves["twig-s"]),
		"fig8 moses scratch":   len(f8.Targets[0].Scratch),
		"fig9 xapian transfer": len(f9.TransferXapian),
	} {
		if n != 11 {
			t.Errorf("%s curve has %d buckets, want 11", name, n)
		}
	}
	// Quick scale's 4 300 intervals and short scale's 200 make twelve
	// buckets, the last one short, and no thirteenth stub.
	for _, sc := range []Scale{QuickScale(), ShortScale()} {
		if w := newQoSBuckets(sc).width; (sc.LearnS+sc.SummaryS+w-1)/w != 12 {
			t.Errorf("%s scale: buckets of %d s make more than twelve", sc.Name, w)
		}
	}
}

func TestFig11TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig11(sc, 1)
	if len(r.MosesLoadRPS) == 0 {
		t.Fatal("trace missing")
	}
	if len(r.QoSGuarantee) != 2 {
		t.Fatalf("QoS entries = %d", len(r.QoSGuarantee))
	}
	// The step-wise generator must actually vary Moses' load.
	if slices.Max(r.MosesLoadRPS) <= slices.Min(r.MosesLoadRPS) {
		t.Fatal("moses load never varied")
	}
}

func TestAblationsTinyPlumbing(t *testing.T) {
	sc := tinyScale()
	for _, r := range []AblationResult{
		AblationReplay(sc, 1),
		AblationEta(sc, 1),
		AblationReward(sc, 1),
		AblationTargetMode(sc, 1),
	} {
		if len(r.Cells) < 2 {
			t.Fatalf("%s cells = %d", r.Name, len(r.Cells))
		}
		for _, c := range r.Cells {
			if c.QoSGuarantee < 0 || c.QoSGuarantee > 1 || c.AvgPowerW <= 0 {
				t.Fatalf("%s cell %+v", r.Name, c)
			}
		}
	}
}

func TestExtensionCATTinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := ExtensionCAT(sc, 1)
	for _, q := range append(r.WithoutQoS[:], r.WithQoS[:]...) {
		if q < 0 || q > 1 {
			t.Fatalf("QoS %v", q)
		}
	}
	if r.WithW <= 0 || r.WithoutW <= 0 {
		t.Fatal("power")
	}
}

func TestBatchColocTinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := BatchColoc(sc, 1)
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	var staticWork, twigWork float64
	for _, c := range r.Cells {
		if c.Manager == "static" {
			staticWork = c.BatchWork
		}
		if c.Manager == "twig-s" {
			twigWork = c.BatchWork
		}
	}
	// Static owns every core, so the batch starves under it; any
	// manager that reclaims cores must beat it.
	if staticWork != 0 {
		t.Fatalf("static batch work = %v, want 0 (no free cores)", staticWork)
	}
	if twigWork <= 0 {
		t.Fatalf("twig batch work = %v, want > 0", twigWork)
	}
}
