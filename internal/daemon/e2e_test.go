package daemon

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
)

// tinyScale is a minimal learning profile: small enough that a 90 s
// daemon run is fast, large enough that the manager actually trains
// (replay fills, target syncs, ε anneals) so a checkpoint carries
// non-trivial learning state.
func tinyScale() experiments.Scale {
	return experiments.Scale{
		Name: "tiny",
		AgentConfig: bdq.AgentConfig{
			Spec:           bdq.Spec{SharedHidden: []int{16}, BranchHidden: 8},
			BatchSize:      8,
			TargetSync:     25,
			PERAnnealSteps: 200,
			Gamma:          0.9,
			TrainPerStep:   1,
			Epsilon:        bdq.EpsilonSchedule{Start: 1, Mid: 0.5, End: 0.1, MidStep: 30, EndStep: 60},
			UsePER:         true,
		},
		LearnS:   50,
		SummaryS: 10,
	}
}

// scriptAction mutates the daemon at a given interval boundary, the way
// an operator would through the admission API mid-run.
type scriptAction func(t *testing.T, e *Engine)

func admitAction(req AdmitRequest) scriptAction {
	return func(t *testing.T, e *Engine) {
		if _, err := e.Admit(req); err != nil {
			t.Fatalf("admit %s: %v", req.Name, err)
		}
	}
}

func drainAction(name string) scriptAction {
	return func(t *testing.T, e *Engine) {
		if _, err := e.Drain(name); err != nil {
			t.Fatalf("drain %s: %v", name, err)
		}
	}
}

// e2eScript is the operator schedule both the reference and the crashed
// run follow: admit a second service mid-run, drain it later. Keys are
// the interval at which the action fires (before that interval runs).
func e2eScript() map[int]scriptAction {
	return map[int]scriptAction{
		30: admitAction(AdmitRequest{Name: "xapian", Load: 0.4}),
		60: drainAction("xapian"),
	}
}

func e2eConfig(store *checkpoint.Store) Config {
	return Config{
		Scale:           tinyScale(),
		Seed:            42,
		Guard:           true,
		Store:           store,
		CheckpointEvery: 10,
	}
}

// row renders one interval's full observable outcome with exact
// float64 bits (hex float formatting), so comparing rows asserts
// byte-identity, not approximate similarity.
func row(res sim.StepResult) string {
	s := fmt.Sprintf("t=%d p=%s", res.Time, hexF(res.TruePowerW))
	for _, sv := range res.Services {
		s += fmt.Sprintf(" [p99=%s c=%d f=%s q=%d rps=%s]",
			hexF(sv.P99Ms), sv.NumCores, hexF(sv.FreqGHz), sv.QueueLen, hexF(sv.OfferedRPS))
	}
	return s
}

func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// runScripted steps e until interval `until`, firing script actions at
// their boundaries, and returns one row per executed interval (indexed
// from the engine's starting interval).
func runScripted(t *testing.T, e *Engine, until int, script map[int]scriptAction) []string {
	t.Helper()
	var rows []string
	for e.Next() < until {
		if act, ok := script[e.Next()]; ok {
			act(t, e)
		}
		res, err := e.Step()
		if err != nil {
			t.Fatalf("step at t=%d: %v", e.Next(), err)
		}
		rows = append(rows, row(res))
	}
	return rows
}

// TestDaemonCrashResumeByteIdentical is the end-to-end property the
// daemon exists for: boot against the simulator, admit and drain
// services mid-run through the engine API, cut the process at a
// seeded-random checkpoint boundary, restore from disk, and verify the
// resumed trajectory matches the uninterrupted reference byte for byte
// — through a membership change on either side of the cut.
func TestDaemonCrashResumeByteIdentical(t *testing.T) {
	const total = 90
	// The cut lands on a random checkpoint boundary (seeded: reproducible
	// but not hand-picked), strictly inside the run so both the admission
	// (t=30) and the drain (t=60) interact with it in different ways
	// across seeds.
	cut := 10 * (1 + rand.New(rand.NewSource(7)).Intn(total/10-1))
	t.Logf("cutting at t=%d", cut)

	// Reference: the uninterrupted run (no store, same script).
	ref, err := New(e2eConfig(nil), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := runScripted(t, ref, total, e2eScript())

	// Crashed run: same config plus a checkpoint store; run to the cut,
	// make the boundary checkpoint durable, then drop the engine on the
	// floor — the in-process equivalent of SIGKILL.
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := New(e2eConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, crashed, cut, e2eScript())
	if err := crashed.FlushCheckpoints(); err != nil {
		t.Fatalf("flushing checkpoints: %v", err)
	}

	// Restore from disk and replay the remainder of the script.
	restored, seq, err := RestoreLatest(e2eConfig(store))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if int(seq) != cut {
		t.Fatalf("restored from seq %d, want the cut at %d", seq, cut)
	}
	if restored.Next() != cut {
		t.Fatalf("restored engine resumes at t=%d, want %d", restored.Next(), cut)
	}
	got := runScripted(t, restored, total, e2eScript())
	if err := restored.FlushCheckpoints(); err != nil {
		t.Fatalf("flushing restored engine: %v", err)
	}

	if len(got) != total-cut {
		t.Fatalf("resumed run produced %d rows, want %d", len(got), total-cut)
	}
	for i, g := range got {
		if w := want[cut+i]; g != w {
			t.Fatalf("trajectory diverged at t=%d:\n  reference: %s\n  resumed:   %s", cut+i, w, g)
		}
	}
}

// TestDaemonLifecycleThroughRun drives the same script without a crash
// and checks the registry ends in the expected lifecycle positions:
// the drained service Stopped and evicted, the original still Running.
func TestDaemonLifecycleThroughRun(t *testing.T) {
	e, err := New(e2eConfig(nil), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, e, 90, e2eScript())

	views := e.Services()
	if len(views) != 2 {
		t.Fatalf("registry has %d services, want 2: %+v", len(views), views)
	}
	byName := map[string]ServiceView{}
	for _, v := range views {
		byName[v.Name] = v
	}
	if got := byName["masstree"].State; got != "running" {
		t.Errorf("masstree state = %s, want running", got)
	}
	if got := byName["xapian"].State; got != "stopped" {
		t.Errorf("xapian state = %s, want stopped", got)
	}
	if n := e.Metrics().Get("twigd_intervals_total", nil); n != 90 {
		t.Errorf("twigd_intervals_total = %v, want 90", n)
	}
	// The drain must have ramped the service down before eviction: the
	// transition counter records the full draining path.
	if n := e.Metrics().Get("twigd_lifecycle_transitions_total", Labels{"from": "draining", "to": "stopped"}); n != 1 {
		t.Errorf("draining→stopped transitions = %v, want 1", n)
	}
}

// TestDaemonHotReloadKeepsLoopRunning schedules a weight reload mid-run
// and verifies the control loop does not miss an interval and the
// reload is reported in metrics.
func TestDaemonHotReloadKeepsLoopRunning(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(e2eConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	script := map[int]scriptAction{
		25: func(t *testing.T, e *Engine) {
			if err := e.FlushCheckpoints(); err != nil {
				t.Fatalf("flush before reload: %v", err)
			}
			if err := e.RequestReload(); err != nil {
				t.Fatalf("request reload: %v", err)
			}
		},
	}
	runScripted(t, e, 40, script)
	if err := e.FlushCheckpoints(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if n := e.Metrics().Get("twigd_weight_reloads_total", Labels{"result": "ok"}); n != 1 {
		t.Errorf("successful reloads = %v, want 1 (errors: %v)", n,
			e.Metrics().Get("twigd_weight_reloads_total", Labels{"result": "error"}))
	}
	if e.Next() != 40 {
		t.Errorf("loop at t=%d after reload run, want 40", e.Next())
	}
}

// TestDaemonFailedReloadLeavesManagerUntouched cuts the newest
// checkpoint's manager section short — re-encoded, so the container's
// CRC holds and the load gets as far as the replay buffer before it
// fails — and requires the failed /reload to leave the live manager
// exactly as it was: its checkpoint bytes equal to before, the failure
// counted, and the loop stepping on.
func TestDaemonFailedReloadLeavesManagerUntouched(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(e2eConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, e, 40, nil)
	if err := e.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	_, data, err := store.ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	version, secs, err := checkpoint.DecodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	cut := false
	for i := range secs {
		if secs[i].Name == e.mgr.CheckpointName() {
			secs[i].Payload = secs[i].Payload[:len(secs[i].Payload)-8]
			cut = true
		}
	}
	if !cut {
		t.Fatalf("no %q section in the checkpoint", e.mgr.CheckpointName())
	}
	if err := store.Save(1_000_000, checkpoint.EncodeFile(version, secs)); err != nil {
		t.Fatal(err)
	}
	runScripted(t, e, 55, nil) // the live manager moves on from the checkpoint
	if err := e.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	before := checkpoint.Marshal(e.mgr)
	if err := e.RequestReload(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.reloadReq = false
	e.doReload()
	e.mu.Unlock()
	if after := checkpoint.Marshal(e.mgr); !bytes.Equal(after, before) {
		t.Fatalf("a failed reload changed the manager: %d checkpoint bytes before, %d after", len(before), len(after))
	}
	if n := e.Metrics().Get("twigd_weight_reloads_total", Labels{"result": "error"}); n != 1 {
		t.Errorf("failed reloads = %v, want 1", n)
	}
	if n := e.Metrics().Get("twigd_weight_reloads_total", Labels{"result": "ok"}); n != 0 {
		t.Errorf("successful reloads = %v, want 0", n)
	}
	runScripted(t, e, 60, nil)
	if err := e.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
}
