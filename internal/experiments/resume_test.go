package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// hx renders a float by its exact bit pattern (hex float), so any ULP of
// divergence between the reference and resumed runs fails the comparison.
func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// record renders one interval as a CSV row covering every observable
// quantity: power and energy, active faults, per-service latency, queue,
// work, allocation echo and normalised PMCs, and the applied assignment.
func record(t int, res sim.StepResult, asg sim.Assignment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%s,%s,%s", t, hx(res.PowerW), hx(res.TruePowerW), hx(res.EnergyJ))
	for _, ev := range res.Faults {
		fmt.Fprintf(&b, ",%v", ev)
	}
	for i, sv := range res.Services {
		fmt.Fprintf(&b, ",s%d,%d,%d,%s,%s,%s,%d,%d,%s,%s,%d,%s,%s",
			i, sv.Arrivals, sv.Completed, hx(sv.P99Ms), hx(sv.P95Ms), hx(sv.MeanMs),
			sv.QueueLen, sv.Dropped, hx(sv.WorkDone), hx(sv.InflationApplied),
			sv.NumCores, hx(sv.FreqGHz), hx(sv.OfferedRPS))
		for _, v := range sv.NormPMCs {
			b.WriteByte(',')
			b.WriteString(hx(v))
		}
	}
	for i, a := range asg.PerService {
		fmt.Fprintf(&b, ",a%d,%v,%s,%d", i, a.Cores, hx(a.FreqGHz), a.CacheWays)
	}
	return b.String()
}

// resumeScenario compresses the crash cadence so crash episodes (offline
// then warm-up) and sensor faults interleave with the restore point
// inside a sub-100-interval test run — the injector's schedule position
// and the server's crash bookkeeping both cross the checkpoint.
func resumeScenario() faults.Scenario {
	return faults.Scenario{
		Name:            "resume-crash",
		PMCCorruptPerKs: 120,
		RAPLFailPerKs:   60,
		CrashPeriodS:    20,
		CrashOfflineS:   5,
		CrashWarmupS:    4,
	}
}

func buildResumeWorld(sc Scale, seed int64, names []string) (*sim.Server, *core.Manager) {
	fs := resumeScenario()
	srv := NewFaultyServer(seed, &fs, names...)
	return srv, NewTwig(srv, sc, seed, names...)
}

// resumeRun is the flagship crash-consistency check: run `total`
// intervals uninterrupted, then separately run `cut` intervals,
// checkpoint, discard every live object, restore into freshly
// constructed components and run the remaining intervals. The
// per-interval records of the stitched run must be byte-identical to the
// reference.
func resumeRun(t *testing.T, sc Scale, total, cut int) {
	t.Helper()
	names := []string{"masstree", "xapian"}
	patterns := []loadgen.Pattern{loadgen.Fixed(500), loadgen.Fixed(300)}
	const seed = 21

	var ref []string
	{
		srv, mgr := buildResumeWorld(sc, seed, names)
		Run(RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns,
			Seconds: total, SummaryFromS: 0,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				ref = append(ref, record(tt, res, asg))
			},
		})
	}

	var got []string
	var ckpt []byte
	{
		srv, mgr := buildResumeWorld(sc, seed, names)
		ls := NewLoopState(srv, mgr)
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns,
			Seconds: cut, SummaryFromS: 0,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				got = append(got, record(tt, res, asg))
			},
			AfterInterval: func(tt int, _ ctrl.Observation, _ sim.Assignment) {
				if tt == cut-1 {
					ls.Next = tt + 1
					ckpt = checkpoint.Marshal(srv, mgr, ls)
				}
			},
		}
		ls.Configure(&cfg)
		Run(cfg)
	}
	if ckpt == nil {
		t.Fatal("no checkpoint captured at the cut interval")
	}

	{
		srv, mgr := buildResumeWorld(sc, seed, names)
		ls := NewLoopState(srv, mgr)
		if err := checkpoint.Unmarshal(ckpt, srv, mgr, ls); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if ls.Next != cut {
			t.Fatalf("restored next interval = %d, want %d", ls.Next, cut)
		}
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns,
			Seconds: total, SummaryFromS: 0,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				got = append(got, record(tt, res, asg))
			},
		}
		ls.Configure(&cfg)
		Run(cfg)
	}

	if len(got) != total || len(ref) != total {
		t.Fatalf("interval counts: stitched %d, reference %d, want %d", len(got), len(ref), total)
	}
	for i := range ref {
		if got[i] != ref[i] {
			leg := "pre-crash"
			if i >= cut {
				leg = "resumed"
			}
			t.Fatalf("interval %d (%s leg) diverges from the uninterrupted run:\nref: %s\ngot: %s",
				i, leg, ref[i], got[i])
		}
	}
}

// Quick scale. The cut at 40 lands mid-way between two crash episodes;
// the t=40 crash fires as the first resumed interval.
func TestResumeBitIdenticalQuickSerial(t *testing.T) {
	resumeRun(t, QuickScale(), 60, 40)
}

// Paper scale (512/256 shared trunk, batch 64): the checkpoint carries
// full-size networks, Adam moments and a PER buffer, restored late in
// the run (72 of 80 intervals).
func TestResumeBitIdenticalPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale networks in -short mode")
	}
	resumeRun(t, PaperScale(), 80, 72)
}
