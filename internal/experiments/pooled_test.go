package experiments

import (
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// End-to-end golden differentials for the pooled managers: a full
// experiment cell driven by a pooled Twig manager must reproduce the
// per-agent run record-for-record (hex-float identical), and a resumed
// run restored INTO a pooled manager must continue the per-agent
// reference bit-for-bit across the cut.

// runCellRecords runs one fig5-style fixed-load cell and returns the
// per-interval full-observability records.
func runCellRecords(mgr *core.Manager, srv *sim.Server, svcName string, lf float64, seconds int) []string {
	prof := service.MustLookup(svcName)
	var recs []string
	Run(RunConfig{
		Server:     srv,
		Controller: mgr,
		Patterns:   []loadgen.Pattern{loadgen.Fixed(lf * prof.MaxLoadRPS)},
		Seconds:    seconds,
		Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
			recs = append(recs, record(tt, res, asg))
		},
	})
	return recs
}

func TestPooledFig5CellBitIdentical(t *testing.T) {
	sc := QuickScale()
	const svcName, lf, seed = "masstree", 0.5, 33
	seconds := sc.LearnS/2 + 10

	srv1 := NewServer(seed, svcName)
	solo := NewTwig(srv1, sc, seed, svcName)
	ref := runCellRecords(solo, srv1, svcName, lf, seconds)

	srv2 := NewServer(seed, svcName)
	pooled := NewTwigPooled(srv2, sc, seed, bdq.NewPools(), svcName)
	got := runCellRecords(pooled, srv2, svcName, lf, seconds)

	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("interval %d: pooled cell diverges from per-agent run:\nref: %s\ngot: %s",
				i, ref[i], got[i])
		}
	}
	if a, b := checkpoint.Marshal(solo), checkpoint.Marshal(pooled); string(a) != string(b) {
		t.Fatal("pooled manager checkpoint bytes diverged")
	}
	pooled.Close()
}

// TestPooledResumeAfterCutBitIdentical: the uninterrupted reference runs
// per-agent; the interrupted run executes its pre-cut leg pooled, cuts a
// checkpoint, and restores into a fresh pooled manager (a fresh pool —
// nothing survives the crash but the checkpoint bytes). Every interval
// must match the reference exactly.
func TestPooledResumeAfterCutBitIdentical(t *testing.T) {
	sc := QuickScale()
	const total, cut, seed = 60, 40, 21
	names := []string{"masstree", "xapian"}
	patterns := []loadgen.Pattern{loadgen.Fixed(500), loadgen.Fixed(300)}

	var ref []string
	{
		srv, mgr := buildResumeWorld(sc, seed, names)
		Run(RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns, Seconds: total,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				ref = append(ref, record(tt, res, asg))
			},
		})
	}

	var got []string
	var ckpt []byte
	{
		fs := resumeScenario()
		srv := NewFaultyServer(seed, &fs, names...)
		mgr := NewTwigPooled(srv, sc, seed, bdq.NewPools(), names...)
		ls := NewLoopState(srv, mgr)
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns, Seconds: cut,
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
		mgr.Close()
	}
	if ckpt == nil {
		t.Fatal("no checkpoint captured at the cut interval")
	}

	{
		fs := resumeScenario()
		srv := NewFaultyServer(seed, &fs, names...)
		mgr := NewTwigPooled(srv, sc, seed, bdq.NewPools(), names...)
		ls := NewLoopState(srv, mgr)
		if err := checkpoint.Unmarshal(ckpt, srv, mgr, ls); err != nil {
			t.Fatalf("restore into pooled manager: %v", err)
		}
		cfg := RunConfig{
			Server: srv, Controller: mgr, Patterns: patterns, Seconds: total,
			Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
				got = append(got, record(tt, res, asg))
			},
		}
		ls.Configure(&cfg)
		Run(cfg)
	}

	if len(got) != total {
		t.Fatalf("stitched run has %d intervals, want %d", len(got), total)
	}
	for i := range ref {
		if got[i] != ref[i] {
			leg := "pre-cut pooled"
			if i >= cut {
				leg = "resumed pooled"
			}
			t.Fatalf("interval %d (%s leg) diverges from per-agent reference:\nref: %s\ngot: %s",
				i, leg, ref[i], got[i])
		}
	}
}
