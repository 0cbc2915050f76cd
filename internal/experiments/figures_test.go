package experiments

import (
	"testing"
)

func TestFig6TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig6(sc, 1)
	if len(r.Traces) != 3 {
		t.Fatalf("traces = %d", len(r.Traces))
	}
	for _, tr := range r.Traces {
		total := 0
		for _, n := range tr.CoreHistogram {
			total += n
		}
		if total != sc.SummaryS {
			t.Fatalf("%s core histogram covers %d of %d intervals", tr.Manager, total, sc.SummaryS)
		}
		if tr.Tardiness == nil || tr.Tardiness.Total != sc.SummaryS {
			t.Fatalf("%s tardiness histogram incomplete", tr.Manager)
		}
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestFig8TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig8(sc, 1)
	if len(r.Targets) != 3 {
		t.Fatalf("targets = %d", len(r.Targets))
	}
	for _, tgt := range r.Targets {
		if len(tgt.Scratch) == 0 || len(tgt.Transfer) == 0 {
			t.Fatalf("%s curves missing", tgt.Service)
		}
		for _, v := range append(append([]float64{}, tgt.Scratch...), tgt.Transfer...) {
			if v < 0 || v > 1 {
				t.Fatalf("curve value %v", v)
			}
		}
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestFig9TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig9(sc, 1)
	if len(r.ScratchXapian) == 0 || len(r.TransferXapian) == 0 {
		t.Fatal("curves missing")
	}
	if r.ScratchPowerW <= 0 || r.TransferPowerW <= 0 {
		t.Fatal("power missing")
	}
	if r.String() == "" {
		t.Fatal("String")
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
}

func TestFig10TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig10(sc, 1)
	if len(r.Traces) != 3 {
		t.Fatalf("traces = %d", len(r.Traces))
	}
	for _, tr := range r.Traces {
		if len(tr.Cores) == 0 || len(tr.Cores) != len(tr.FreqGHz) || len(tr.Cores) != len(tr.LoadRPS) {
			t.Fatalf("%s trace lengths %d/%d/%d", tr.Manager, len(tr.Cores), len(tr.FreqGHz), len(tr.LoadRPS))
		}
		if tr.EnergyJ <= 0 {
			t.Fatalf("%s energy", tr.Manager)
		}
	}
	if r.String() == "" {
		t.Fatal("String")
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
	lo, hi := r.MosesLoadRPS[0], r.MosesLoadRPS[0]
	for _, v := range r.MosesLoadRPS {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		t.Fatal("moses load never varied")
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestFig12TinyPlumbing(t *testing.T) {
	sc := tinyScale()
	r := Fig12(sc, 1)
	if len(r.Traces) != 2 {
		t.Fatalf("traces = %d", len(r.Traces))
	}
	names := map[string]bool{}
	for _, tr := range r.Traces {
		names[tr.Manager] = true
		if len(tr.CoreHist) != 2 {
			t.Fatalf("%s service histograms = %d", tr.Manager, len(tr.CoreHist))
		}
	}
	if !names["parties"] || !names["twig-c"] {
		t.Fatalf("managers = %v", names)
	}
	if r.String() == "" {
		t.Fatal("String")
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
		if r.String() == "" {
			t.Fatal("String")
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
	if r.String() == "" {
		t.Fatal("String")
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
	if r.String() == "" {
		t.Fatal("String")
	}
}
