package experiments

import (
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
)

// miniScale shrinks ShortScale further for unit tests: enough intervals
// to exercise learning, decisions and the summary window, not enough to
// show learning outcomes.
func miniScale() Scale {
	sc := ShortScale()
	sc.Name = "mini"
	sc.LearnS = 40
	sc.SummaryS = 20
	return sc
}

// The rendered sweep must be byte-identical across same-seed reruns and
// differ across seeds — the property the CI scenario-smoke job checks
// for the full FigScenShort sweep, pinned here per commit on one preset.
func TestFigScenDeterministic(t *testing.T) {
	sc := miniScale()
	a := figScen(sc, 7, []string{"cloud-edge"}).String()
	b := figScen(sc, 7, []string{"cloud-edge"}).String()
	if a != b {
		t.Fatalf("same-seed reruns diverge:\n%s\nvs\n%s", a, b)
	}
	c := figScen(sc, 8, []string{"cloud-edge"}).String()
	if a == c {
		t.Fatal("different seeds rendered identically")
	}
	for _, want := range []string{"cloud-edge/cloud0", "cloud-edge/edge0", "cloud-edge/edge1", "twig-c", "parties", "static"} {
		if !strings.Contains(a, want) {
			t.Fatalf("rendered sweep is missing %q:\n%s", want, a)
		}
	}
}

// PARTIES used to over-allocate when it reverted a core migration and
// panic in assignment(); Run hid that behind the last valid assignment.
// Every PARTIES cell of `figscen -short` must decide every interval
// itself. The cells run on to 1 200 intervals here: the panics are
// counted over the whole run, the first 200 intervals are the short
// cell's own, and the bug first showed between t = 200 and t = 1 200 in
// four of the eight worlds.
func TestFigScenShortPartiesNeverPanics(t *testing.T) {
	sc := ShortScale()
	sc.LearnS = 1150
	ran := 0
	for _, c := range figScenCells(7, scenario.Names()) {
		if c.manager != "parties" {
			continue
		}
		cell := ScenCellRun(sc, c.seed, c.w, c.manager)
		if cell.DecidePanics != 0 || cell.StepErrors != 0 {
			t.Errorf("%s: loop saved %d panics / %d rejected assignments", c.w.Name, cell.DecidePanics, cell.StepErrors)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("the sweep has no PARTIES cells")
	}
}

func TestScenQoSTargetIsSLO(t *testing.T) {
	ws, err := scenario.MustNamed("cloud-edge").Worlds(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, svc := range w.Services {
			if got, want := ScenQoSTarget(w, svc), QoSTarget(svc); got != want {
				t.Fatalf("world %s service %s: target %v, want the platform-independent SLO %v", w.Name, svc, got, want)
			}
		}
	}
}

// The flagship crash-consistency check under a scenario world: a
// Twig-C run over the agentic-burst pod, cut at interval 40 of 60,
// restored into freshly built components, must replay the uninterrupted
// trajectory bit-for-bit — the new trace generators, the scenario
// plumbing and the heterogeneous-platform checkpoint format all sit on
// the cut path.
func TestScenResumeBitIdenticalAgenticBurst(t *testing.T) {
	const total, cut, seed = 60, 40, 21
	sc := ShortScale()
	ws, err := scenario.MustNamed("agentic-burst").Worlds(seed)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	build := func() (*sim.Server, *core.Manager) {
		srv := scenWorld(w, seed)
		return srv, newScenTwig(srv, w, sc, seed)
	}

	var ref []string
	{
		srv, mgr := build()
		Run(RunConfig{
			Server: srv, Controller: mgr, Patterns: w.Patterns(),
			Seconds: total, SummaryFromS: 0,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				ref = append(ref, record(tt, res, asg))
			},
		})
	}

	var got []string
	var ckpt []byte
	{
		srv, mgr := build()
		ls := NewLoopState(srv, mgr)
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: w.Patterns(),
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
		srv, mgr := build()
		ls := NewLoopState(srv, mgr)
		if err := checkpoint.Unmarshal(ckpt, srv, mgr, ls); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if ls.Next != cut {
			t.Fatalf("restored next interval = %d, want %d", ls.Next, cut)
		}
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: w.Patterns(),
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
			leg := "pre-cut"
			if i >= cut {
				leg = "resumed"
			}
			t.Fatalf("interval %d (%s leg) diverges from the uninterrupted run:\nref: %s\ngot: %s",
				i, leg, ref[i], got[i])
		}
	}
}
