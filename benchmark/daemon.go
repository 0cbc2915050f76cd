package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/daemon"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// daemonWorld is the production path: a daemon.Engine with the guard
// harness and a checkpoint store on disk, whose membership churns on a
// fixed cycle while the control loop runs.
type daemonWorld struct {
	e        env
	eng      *daemon.Engine
	store    *checkpoint.Store
	patterns []loadgen.Pattern // the seeded offered-load traces
	cycle    int
	numCores int

	// What the live run saw, for the per-layer metrics.
	cadenceNs    []int64 // steps that cut a checkpoint
	rebuildNs    []int64 // steps whose membership changed
	plainNs      []int64
	guardEvents  float64
	guardPrev    float64
	checkpointMs float64
	ckptBytes    int
	sample       stepSample // results and loads of the last settled intervals
}

const daemonCheckpointEvery = 60

func buildDaemonChurn(e env) (world, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "daemon-ckpt-")
	if err != nil {
		return nil, fmt.Errorf("daemon_quick_churn: %w", err)
	}
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		return nil, fmt.Errorf("daemon_quick_churn: %w", err)
	}
	// The offered loads are the engine's own stepwise, diurnal and fixed
	// shapes for these requests, with the seeded jitter on top.
	in := rand.New(rand.NewSource(e.seed))
	mt := 0.4 * service.MustLookup("masstree").MaxLoadRPS
	xa := 0.3 * service.MustLookup("xapian").MaxLoadRPS
	mo := 0.2 * service.MustLookup("moses").MaxLoadRPS
	patterns := []loadgen.Pattern{
		jitterTrace(loadgen.NewStepWise(0.2*mt, mt, 0.2, 200), e.intervals, in),
		jitterTrace(loadgen.Diurnal{MinRPS: 0.3 * xa, MaxRPS: xa, PeriodS: 3600}, e.intervals, in),
		jitterTrace(loadgen.Fixed(mo), e.intervals, in),
	}
	eng, err := daemon.New(daemon.Config{
		Scale:            experiments.QuickScale(),
		Seed:             programSeed,
		Guard:            true,
		Store:            store,
		CheckpointEvery:  daemonCheckpointEvery,
		PatternOverrides: map[string]loadgen.Pattern{"masstree": patterns[0], "xapian": patterns[1], "moses": patterns[2]},
	}, []daemon.AdmitRequest{
		{Name: "masstree", Load: 0.4, Pattern: "stepwise"},
		{Name: "xapian", Load: 0.3, Pattern: "diurnal"},
	})
	if err != nil {
		return nil, fmt.Errorf("daemon_quick_churn: %w", err)
	}
	// The churn cycle is 2000 intervals; a run shorter than one cycle
	// (the smoke test) shrinks it so every lifecycle step still happens.
	cycle := 2000
	if e.intervals < cycle {
		cycle = e.intervals
	}
	return &daemonWorld{e: e, eng: eng, store: store, patterns: patterns, cycle: cycle, numCores: eng.NumCores()}, nil
}

// churn issues the admission-API calls due at interval t: within every
// cycle, admit moses at 35%, hot-reload the weights at 50%, drain moses
// at 70% and delete it at 75%.
func (w *daemonWorld) churn(rec *recorder, t int) {
	var call func() error
	switch t % w.cycle {
	case w.cycle * 35 / 100:
		call = func() error {
			_, err := w.eng.Admit(daemon.AdmitRequest{Name: "moses", Load: 0.2})
			return err
		}
	case w.cycle / 2:
		call = func() error {
			// The reload reads the newest checkpoint on disk. Waiting for
			// the async writer first makes which one that is — and so
			// the trajectory — independent of disk speed.
			if err := w.eng.FlushCheckpoints(); err != nil {
				return err
			}
			return w.eng.RequestReload()
		}
	case w.cycle * 70 / 100:
		call = func() error { _, err := w.eng.Drain("moses"); return err }
	case w.cycle * 75 / 100:
		call = func() error { _, _, err := w.eng.Delete("moses"); return err }
	default:
		return
	}
	id := w.e.tr.begin("daemon.api", t)
	err := call()
	w.e.tr.end(id)
	if err != nil {
		rec.fail(t, "admission API: %v", err)
	}
}

func (w *daemonWorld) run(rec *recorder) {
	tr := w.e.tr
	lo, hi := sim.DefaultConfig().Platform.FreqRange()
	members := 2
	for t := 0; t < w.e.intervals; t++ {
		interval := tr.begin("interval", t)
		w.churn(rec, t)
		id := tr.begin("daemon.step", t)
		res, err := w.eng.Step()
		tr.end(id)
		if err != nil {
			rec.fail(t, "Engine.Step: %v", err)
		} else {
			rec.observeStep(t, res, w.numCores, lo, hi)
		}
		if tr != nil {
			dt := tr.duration(id)
			switch {
			case len(res.Services) != members:
				w.rebuildNs = append(w.rebuildNs, dt)
			case (t+1)%daemonCheckpointEvery == 0:
				w.cadenceNs = append(w.cadenceNs, dt)
			default:
				w.plainNs = append(w.plainNs, dt)
			}
			w.guardEvents += w.guardDelta()
			if t >= w.e.intervals-stepSampleLen && len(res.Services) == 2 {
				w.sample.addResult(res)
			}
		}
		members = len(res.Services)
		tr.end(interval)
		rec.tick()
	}
}

var guardFamilies = []string{
	"twigd_guard_obs_repaired_total", "twigd_guard_stale_exceeded_total",
	"twigd_guard_panics_recovered_total", "twigd_guard_actions_clamped_total",
	"twigd_guard_fallback_intervals_total", "twigd_guard_breaker_trips_total",
}

// guardDelta returns the guard interventions since the previous call.
// The exported counters restart from zero when a membership change
// rebuilds the guard, so a drop is read as a fresh guard.
func (w *daemonWorld) guardDelta() float64 {
	var now float64
	for _, f := range guardFamilies {
		now += w.eng.Metrics().Get(f, nil)
	}
	d := now - w.guardPrev
	if d < 0 {
		d = now
	}
	w.guardPrev = now
	return d
}

func (w *daemonWorld) finish(rec *recorder) ([]string, int, map[string]float64) {
	var problems []string
	m := w.eng.Metrics()

	t0 := nowNs()
	if err := w.eng.CheckpointNow(); err != nil {
		problems = append(problems, fmt.Sprintf("CheckpointNow: %v", err))
	}
	w.checkpointMs = float64(nowNs()-t0) / 1e6
	seq, data, err := w.store.ReadLatest()
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("Store.ReadLatest: %v", err))
	case seq != uint64(w.e.intervals):
		problems = append(problems, fmt.Sprintf("newest checkpoint is seq %d, want %d", seq, w.e.intervals))
	default:
		if err := checkpoint.Verify(data); err != nil {
			problems = append(problems, fmt.Sprintf("checkpoint.Verify: %v", err))
		}
	}
	if n := m.Get("twigd_weight_reloads_total", daemon.Labels{"result": "error"}); n > 0 {
		problems = append(problems, fmt.Sprintf("%v hot weight reloads failed", n))
	}
	if n := m.Get("twigd_checkpoint_failed_total", nil); n > 0 {
		problems = append(problems, fmt.Sprintf("%v checkpoint writes failed", n))
	}

	w.ckptBytes = len(data)
	panics := m.Get("twigd_decide_panics_total", nil)
	stepErrs := m.Get("twigd_step_errors_total", nil)
	ev := map[string]float64{
		"sim.requests_per_interval": float64(rec.completed) / float64(rec.intervals),
		"daemon.placement_failures": m.Get("twigd_placement_failures_total", nil),
		"daemon.transitions":        sumFamily(m.Render(), "twigd_lifecycle_transitions_total"),
		"daemon.weight_reloads":     m.Get("twigd_weight_reloads_total", daemon.Labels{"result": "ok"}),
		"daemon.loop_failures":      panics + stepErrs,
	}
	return problems, int(panics + stepErrs), ev
}

// sumFamily adds up every series of one family in a rendered scrape.
func sumFamily(scrape, family string) float64 {
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			var v float64
			if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
				sum += v
			}
		}
	}
	return sum
}
