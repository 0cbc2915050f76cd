package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/twig-sched/twig/internal/sim/service"
)

// TestPaperFidelity holds the reproduction to the paper's qualitative
// claims, one row per claim. Every run takes each figure once at
// tinyScale, seed 1 (the shape pass: it renders, and every row's measure
// reads it), and the tier-1 verdicts. The rest take minutes a seed; CI's
// fidelity job runs them, not under -race (Table III's is wall-clock):
//
//	TWIG_FIDELITY=1 go test -count=1 -run '^TestPaperFidelity$' -v -timeout 30m ./internal/experiments/
func TestPaperFidelity(t *testing.T) {
	results := map[string]any{}
	run := func(t *testing.T, row fidelityRow, sc Scale, seed int64) any {
		key := fmt.Sprint(row.fig, sc.Name, seed)
		if _, ok := results[key]; !ok {
			t0 := time.Now()
			results[key] = row.run(sc, seed)
			t.Logf("%s at %s scale, seed %d, in %.1f s:\n%v", row.fig, sc.Name, seed, time.Since(t0).Seconds(), results[key])
		}
		return results[key]
	}
	t.Run("shape", func(t *testing.T) {
		for _, row := range fidelityRows {
			t.Run(row.name, func(t *testing.T) {
				res := run(t, row, tinyScale(), 1)
				if v := row.measure(tinyScale(), res); math.IsNaN(v) || fmt.Sprint(res) == "" {
					t.Fatalf("%s: measure %v, rendering %q", row.fig, v, fmt.Sprint(res))
				}
			})
		}
	})
	for _, row := range fidelityRows {
		t.Run(row.name, func(t *testing.T) {
			sc := row.scale()
			if row.recorded {
				t.Skipf("%s scale: recorded for the reproduction at the paper's own scale (ROADMAP), not run here", sc.Name)
			}
			if !row.tier1 && os.Getenv("TWIG_FIDELITY") != "1" {
				t.Skip("set TWIG_FIDELITY=1 to take this verdict")
			}
			t.Logf("%s: %s", row.fig, row.claim)
			vs := make([]float64, len(row.seeds))
			for i, seed := range row.seeds {
				vs[i] = row.measure(sc, run(t, row, sc, seed))
			}
			t.Logf("%s on seeds %v: measures %.4g", row.stat, row.seeds, vs)
			if msg := row.stat.verdict(vs, row.margin); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// A fidelityRow is one claim: the figure runner it reads, the scale and
// seeds of its verdict, and a measure of one seed's result that is > 0
// where the claim holds. A verdict runs with TWIG_FIDELITY=1 unless the
// row is tier1 (every go test) or recorded (no test).
type fidelityRow struct {
	name, fig, claim string
	run              func(sc Scale, seed int64) any
	scale            func() Scale
	tier1, recorded  bool
	seeds            []int64
	stat             statistic
	margin           float64 // medianVsMargin: the median must be ≥ −margin
	measure          func(sc Scale, res any) float64
}

type statistic string

const (
	everySeed      statistic = "every seed"       // the claim holds on each seed
	medianVsMargin statistic = "median vs margin" // the median over seeds is within margin
	knownDeviation statistic = "known-deviation"  // a ⚠ of EXPERIMENTS.md: the claim fails on each seed
)

// verdict says why the per-seed measures vs fail s, or "" if they pass.
func (s statistic) verdict(vs []float64, margin float64) string {
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	switch {
	case s == everySeed && !(sorted[0] > 0):
		return "the claim fails on a seed"
	case s == medianVsMargin && !(sorted[len(sorted)/2] >= -margin):
		return fmt.Sprintf("the median is outside the margin %v", margin)
	case s == knownDeviation && sorted[len(sorted)-1] > 0:
		return "the claim reproduces on a seed: flip this row to an assertion and drop its ⚠"
	}
	return ""
}

// on adapts a measure of one figure's result type to the table's.
func on[R any](measure func(r R) float64) func(Scale, any) float64 {
	return func(_ Scale, res any) float64 { return measure(res.(R)) }
}

var s123 = []int64{1, 2, 3}
var runFig5 = func(sc Scale, seed int64) any { return Fig5(service.TailbenchNames(), sc, seed) }
var runFig12 = func(sc Scale, seed int64) any { return Fig12(sc, seed) }
var runFig13 = func(sc Scale, seed int64) any { return Fig13(ServicePairs(), sc, seed) }

var fidelityRows = []fidelityRow{
	{name: "fig5-energy-below-static-and-heracles", fig: "fig5", run: runFig5, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "Twig-S uses less energy than static and than Heracles, at the QoS of fig5-qos-within-10-points",
		measure: on(func(r Fig5Result) float64 {
			return min(1, r.AvgEnergyNorm("heracles")) - r.AvgEnergyNorm("twig-s")
		})},
	{name: "fig5-qos-within-10-points", fig: "fig5", run: runFig5, scale: QuickScale, seeds: s123, stat: medianVsMargin, margin: 0.10,
		claim: "Twig-S's QoS guarantee is within 10 points of static's and Heracles'",
		measure: on(func(r Fig5Result) float64 {
			return r.AvgQoS("twig-s") - max(r.AvgQoS("static"), r.AvgQoS("heracles"))
		})},
	{name: "fig5-energy-below-hipster", fig: "fig5", run: runFig5, scale: QuickScale, seeds: s123, stat: knownDeviation,
		claim:   "Twig-S uses less energy than Hipster (⚠: ours under-provisions and spends less)",
		measure: on(func(r Fig5Result) float64 { return r.AvgEnergyNorm("hipster") - r.AvgEnergyNorm("twig-s") })},
	{name: "fig6-stable-and-lean", fig: "fig6", run: func(sc Scale, seed int64) any { return Fig6(sc, seed) }, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "Twig-S migrates less than Hipster, on fewer cores than the 18 static holds",
		measure: on(func(r Fig6Result) float64 { // traces: heracles, hipster, twig-s
			return min(float64(r.Traces[1].Migrations-r.Traces[2].Migrations), 18-r.Traces[2].AvgCores)
		})},
	{name: "fig7-twig-overtakes-hipster", fig: "fig7", run: func(sc Scale, seed int64) any { return Fig7(sc, seed) }, scale: QuickScale, tier1: true, seeds: s123, stat: everySeed,
		claim: "Hipster's heuristic leads the first bucket, and Twig-S ends above Hipster in the last bucket at least half full",
		measure: func(sc Scale, res any) float64 {
			r := res.(Fig7Result)
			tw, hi, last := r.Curves["twig-s"], r.Curves["hipster"], (sc.LearnS+sc.SummaryS-r.BucketS/2)/r.BucketS
			return min(hi[0]-tw[0], tw[last]-hi[last])
		}},
	{name: "fig8-transfer-faster", fig: "fig8", run: func(sc Scale, seed int64) any { return Fig8(sc, seed) }, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "on every target, Twig-S with transferred weights reaches 80% QoS in fewer buckets than from scratch",
		measure: on(func(r Fig8Result) float64 {
			v := math.Inf(1)
			for _, tg := range r.Targets {
				v = min(v, float64(to80(tg.Scratch)-to80(tg.Transfer)))
			}
			return v
		})},
	{name: "fig9-transfer-faster", fig: "fig9", run: func(sc Scale, seed int64) any { return Fig9(sc, seed) }, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "after the swap, Twig-C with transferred weights reaches 80% QoS on both services in fewer buckets than from scratch",
		measure: on(func(r Fig9Result) float64 {
			return float64(min(to80(r.ScratchXapian)-to80(r.TransferXapian), to80(r.ScratchMasstree)-to80(r.TransferMasstree)))
		})},
	{name: "fig10-heracles-spends-more", fig: "fig10", run: func(sc Scale, seed int64) any { return Fig10(sc, seed) }, scale: QuickScale, seeds: s123, stat: knownDeviation,
		claim:   "under the varying load Heracles spends ≥ 10% more energy than Twig-S (paper: 18%; ⚠: ours provisions for peak)",
		measure: on(func(r Fig10Result) float64 { return r.Traces[2].EnergyJ/r.Traces[0].EnergyJ - 1.10 })}, // twig-s, hipster, heracles
	{name: "fig12-twig-dwells", fig: "fig12", run: runFig12, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "on each service, Twig-C holds its most frequent core count for more of the window than PARTIES, at no more than 5% over PARTIES' power",
		measure: on(func(r Fig12Result) float64 {
			pa, tw := r.Traces[0], r.Traces[1]
			return min(1.05*pa.AvgPowerW-tw.AvgPowerW, dwell(tw.CoreHist[0])-dwell(pa.CoreHist[0]), dwell(tw.CoreHist[1])-dwell(pa.CoreHist[1]))
		})},
	{name: "fig12-paper-fewer-migrations", fig: "fig12", run: runFig12, scale: PaperScale, recorded: true, seeds: s123, stat: knownDeviation,
		claim:   "at the paper's scale Twig-C migrates less than PARTIES (⚠: 265–368 against 32–39)",
		measure: on(func(r Fig12Result) float64 { return float64(r.Traces[0].Migrations - r.Traces[1].Migrations) })},
	{name: "fig13-qos-above-parties-energy-below-static", fig: "fig13", run: runFig13, scale: QuickScale, seeds: s123, stat: everySeed,
		claim: "Twig-C's QoS guarantee is above PARTIES', and its energy below static's",
		measure: on(func(r Fig13Result) float64 {
			return min(r.AvgQoS("twig-c")-r.AvgQoS("parties"), 1-r.AvgEnergyNorm("twig-c"))
		})},
	{name: "fig13-energy-below-parties", fig: "fig13", run: runFig13, scale: QuickScale, seeds: s123, stat: knownDeviation,
		claim:   "Twig-C uses less energy than PARTIES (⚠: ours under-provisions and spends less)",
		measure: on(func(r Fig13Result) float64 { return r.AvgEnergyNorm("parties") - r.AvgEnergyNorm("twig-c") })},
	{name: "figmem-bdq-under-5mb", fig: "figmem", run: func(Scale, int64) any { return FigMem(3, 30, 25) }, scale: PaperScale, tier1: true, seeds: s123, stat: everySeed,
		claim: "at D=3, N=30, b=25 the BDQ fits in 5 MB, Hipster's table holds the paper's 25·3³⁰ entries, and a flat DQN dwarfs the BDQ",
		measure: on(func(r FigMemResult) float64 {
			return min(float64(5<<20-r.TwigBytes), r.HipsterEntries-1e14, float64(r.FlatDQNParams-r.TwigParams))
		})},
	{name: "table3-overhead-order", fig: "table3", run: func(Scale, int64) any { return Table3(20) }, scale: PaperScale, seeds: s123, stat: everySeed,
		claim: "the monitor and the mapper each cost under 1% of a gradient step, the step under 5% of a 1 s interval, and a service's PMCs 352 B/s (wall-clock: never under -race)",
		measure: on(func(r Table3Result) float64 {
			if r.PMCDataBytes != 352 {
				return -1
			}
			gd := r.GradientDescent
			return float64(min(gd/100-r.PMCGather, gd/100-r.Mapping, 50*time.Millisecond-gd))
		})},
}

// to80 is the first bucket of a learning curve at ≥ 80% QoS, or the
// curve's length if none is.
func to80(curve []float64) int {
	if i := slices.IndexFunc(curve, func(v float64) bool { return v >= 0.8 }); i >= 0 {
		return i
	}
	return len(curve)
}

// dwell is the share of a histogram's intervals at its most frequent
// core count.
func dwell(hist map[int]int) float64 {
	most, total := 0, 0
	for _, n := range hist {
		most, total = max(most, n), total+n
	}
	return float64(most) / float64(total)
}
