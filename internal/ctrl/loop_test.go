package ctrl

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/service"
)

// misbehave is what a scripted controller does wrong in one interval.
type misbehave uint8

const (
	panicDecide misbehave = 1 << iota
	panicPrepare
	panicFinish
	wrongShape
)

// scripted is a phased controller whose decision is a pure function of
// the observation — it widens a service whose queue is growing and
// raises the frequency of one missing its target, so the loop's carried
// observation and tracker memory steer the trajectory — and that
// misbehaves in the intervals its script names (keyed by obs.Time).
type scripted struct {
	managed  []int
	lo, hi   float64
	script   map[int]misbehave
	prepared Observation
	finishes int
}

func newScripted(srv *sim.Server, script map[int]misbehave) *scripted {
	lo, hi := srv.FreqRange()
	return &scripted{managed: srv.ManagedCores(), lo: lo, hi: hi, script: script}
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Decide(obs Observation) sim.Assignment {
	if s.script[obs.Time]&panicDecide != 0 {
		panic("scripted: Decide")
	}
	return s.decision(obs)
}

func (s *scripted) PrepareDecide(obs Observation) {
	if s.script[obs.Time]&panicPrepare != 0 {
		panic("scripted: PrepareDecide")
	}
	s.prepared = obs
}

func (s *scripted) FinishDecide() sim.Assignment {
	s.finishes++
	if s.script[s.prepared.Time]&panicFinish != 0 {
		panic("scripted: FinishDecide")
	}
	return s.decision(s.prepared)
}

func (s *scripted) decision(obs Observation) sim.Assignment {
	k := len(obs.Services)
	if s.script[obs.Time]&wrongShape != 0 {
		k++
	}
	asg := sim.Assignment{PerService: make([]sim.Allocation, k), IdleFreqGHz: s.lo}
	for i := range asg.PerService {
		n, f := 2+obs.Time%3, s.lo
		if i < len(obs.Services) {
			if obs.Services[i].QueueGrowing {
				n += 2
			}
			if !obs.Services[i].QoSMet() {
				f = s.hi
			}
		}
		asg.PerService[i] = sim.Allocation{Cores: s.managed[i*6 : i*6+n], FreqGHz: f}
	}
	return asg
}

// plainOnly hides a controller's phased halves, so the loop runs the
// whole Decide.
type plainOnly struct{ Controller }

func testServer() *sim.Server {
	return sim.NewServer(sim.DefaultConfig(), []sim.ServiceSpec{
		{Profile: service.MustLookup("masstree"), QoSTargetMs: 5, Seed: 1},
		{Profile: service.MustLookup("xapian"), QoSTargetMs: 8, Seed: 2},
	})
}

// stepLoop runs one interval at fixed loads, phased (Prepare first) or
// whole, and returns the kernel's report.
func stepLoop(t *testing.T, l *Loop, phased bool) (sim.StepResult, Outcome) {
	t.Helper()
	loads := l.Loads()
	loads[0], loads[1] = 600, 200
	if phased {
		l.Prepare()
	}
	res, out, err := l.Step()
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	return res, out
}

func TestLoopFallsBackAndStaysSteppable(t *testing.T) {
	const bad = 3 // the interval that misbehaves
	cases := []struct {
		name     string
		phased   bool
		fault    misbehave
		want     Outcome
		finishes int // FinishDecide calls in the bad interval
	}{
		{"Decide panics", false, panicDecide, DecidePanicked, 0},
		{"PrepareDecide panics", true, panicPrepare, DecidePanicked, 0},
		{"FinishDecide panics", true, panicFinish, DecidePanicked, 1},
		{"Decide emits a wrong shape", false, wrongShape, StepRejected, 0},
		{"FinishDecide emits a wrong shape", true, wrongShape, StepRejected, 1},
		{"PrepareDecide and FinishDecide both panic", true, panicPrepare | panicFinish, DecidePanicked, 0},
		{"Decide panics and would emit a wrong shape", false, panicDecide | wrongShape, DecidePanicked, 0},
		{"FinishDecide panics and would emit a wrong shape", true, panicFinish | wrongShape, DecidePanicked, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer()
			sc := newScripted(srv, map[int]misbehave{bad: tc.fault})
			var c Controller = sc
			if !tc.phased {
				c = plainOnly{sc}
			}
			l := NewLoop(srv, c)
			for i := 0; i < bad; i++ {
				if _, out := stepLoop(t, l, tc.phased); out != 0 {
					t.Fatalf("clean interval %d reported %b", i, out)
				}
			}
			before, finishes := l.LastValid(), sc.finishes

			res, out := stepLoop(t, l, tc.phased)
			if out != tc.want {
				t.Fatalf("outcome %b, want %b", out, tc.want)
			}
			if res.Time != bad || srv.Clock() != bad+1 {
				t.Fatalf("bad interval stepped t=%d, clock now %d", res.Time, srv.Clock())
			}
			if !reflect.DeepEqual(l.LastValid(), before) {
				t.Fatalf("did not fall back to the last valid assignment:\n got %+v\nwant %+v", l.LastValid(), before)
			}
			if got := sc.finishes - finishes; got != tc.finishes {
				t.Fatalf("FinishDecide ran %d times in the bad interval, want %d", got, tc.finishes)
			}
			if l.obs.Time != bad+1 {
				t.Fatalf("pending observation is for t=%d, want %d", l.obs.Time, bad+1)
			}

			// The next interval decides normally — as a whole Decide even
			// after a phased failure, since nothing was prepared for it.
			want := sc.decision(l.obs)
			if _, out := stepLoop(t, l, false); out != 0 {
				t.Fatalf("interval after the bad one reported %b", out)
			}
			if !reflect.DeepEqual(l.LastValid(), want) {
				t.Fatalf("interval after the bad one applied %+v, want the controller's %+v", l.LastValid(), want)
			}
		})
	}
}

// A world that changed shape under the loop makes the fallback itself
// unacceptable: the kernel reports it as an error, steps nothing, keeps
// its state, and works again once the world matches.
func TestLoopFallbackRejectedLeavesStateUntouched(t *testing.T) {
	srv := testServer()
	l := NewLoop(srv, plainOnly{newScripted(srv, nil)})
	stepLoop(t, l, false)
	obs, lastValid := l.obs, l.LastValid()

	if err := srv.AddService(sim.ServiceSpec{Profile: service.MustLookup("moses"), QoSTargetMs: 9, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	l.Loads() // resized to the three-service world; the fallback is not
	_, out, err := l.Step()
	if err == nil || out != StepRejected {
		t.Fatalf("three services under a two-service loop: outcome %b, err %v", out, err)
	}
	if srv.Clock() != 1 || !reflect.DeepEqual(l.obs, obs) || !reflect.DeepEqual(l.LastValid(), lastValid) {
		t.Fatal("a rejected fallback advanced the world or the loop")
	}

	if err := srv.RemoveService(2); err != nil {
		t.Fatal(err)
	}
	if _, out := stepLoop(t, l, false); out != 0 {
		t.Fatalf("loop not steppable after the world was repaired: %b", out)
	}
}

func hexRow(res sim.StepResult, asg sim.Assignment) string {
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d p=%s e=%s", res.Time, hx(res.PowerW), hx(res.EnergyJ))
	for i, sv := range res.Services {
		a := asg.PerService[i]
		fmt.Fprintf(&b, " [p99=%s q=%d done=%d cores=%v f=%s]", hx(sv.P99Ms), sv.QueueLen, sv.Completed, a.Cores, hx(a.FreqGHz))
	}
	return b.String()
}

// loopSection names a loop's triple for a test container.
type loopSection struct{ *Loop }

func (loopSection) CheckpointName() string { return "loop" }

// The triple is everything the kernel carries: a zero loop decoded from
// it and bound to a restored world continues exactly as the original.
func TestLoopCheckpointResumesHexIdentical(t *testing.T) {
	const cut, total = 12, 30
	script := map[int]misbehave{5: panicDecide, 15: wrongShape, 20: panicDecide}
	run := func(l *Loop, from, to int) []string {
		var rows []string
		for i := from; i < to; i++ {
			res, _ := stepLoop(t, l, false)
			rows = append(rows, hexRow(res, l.LastValid()))
		}
		return rows
	}

	srv := testServer()
	want := run(NewLoop(srv, plainOnly{newScripted(srv, script)}), 0, total)

	srv = testServer()
	l := NewLoop(srv, plainOnly{newScripted(srv, script)})
	got := run(l, 0, cut)
	ckpt := checkpoint.Marshal(srv, loopSection{l})

	srv = testServer()
	var restored Loop
	if err := checkpoint.Unmarshal(ckpt, srv, loopSection{&restored}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpoint.Marshal(srv, loopSection{&restored}), ckpt) {
		t.Fatal("re-encoding the decoded triple changed its bytes")
	}
	restored.Bind(srv, plainOnly{newScripted(srv, script)})
	got = append(got, run(&restored, cut, total)...)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d diverges:\n uninterrupted: %s\n      stitched: %s", i, want[i], got[i])
		}
	}
}

// fixed always returns the same prebuilt assignment.
type fixed struct{ asg sim.Assignment }

func (fixed) Name() string                        { return "fixed" }
func (f fixed) Decide(Observation) sim.Assignment { return f.asg }

// The kernel adds no allocation to what it wraps: actuating costs what a
// bare sim.Server.Step costs, and so does a whole step — the observation
// goes into storage the loop double-buffers, where a bare tracker's
// Observe makes it fresh.
func TestLoopStepAddsNoAllocations(t *testing.T) {
	lo, hi := testServer().FreqRange()
	world := func() (*sim.Server, sim.Assignment) {
		srv := testServer()
		return srv, SafeAssignment(srv.NumServices(), srv.ManagedCores(), lo, hi)
	}
	loads := []float64{900, 400}
	const warm, runs = 20, 50

	srv, asg := world()
	bare := func() { srv.MustStep(asg, loads) }
	for i := 0; i < warm; i++ {
		bare()
	}
	bareAllocs := testing.AllocsPerRun(runs, bare)

	srv, asg = world()
	l := NewLoop(srv, fixed{asg})
	copy(l.Loads(), loads)
	actuate := func() {
		if _, out, err := l.Actuate(); out != 0 || err != nil {
			t.Fatalf("outcome %b, err %v", out, err)
		}
	}
	for i := 0; i < warm; i++ {
		actuate()
	}
	if got := testing.AllocsPerRun(runs, actuate); got != bareAllocs {
		t.Errorf("Loop.Actuate: %v allocs, a bare sim.Server.Step %v", got, bareAllocs)
	}

	step := func() {
		if _, out, err := l.Step(); out != 0 || err != nil {
			t.Fatalf("outcome %b, err %v", out, err)
		}
	}
	if got := testing.AllocsPerRun(runs, step); got != bareAllocs {
		t.Errorf("Loop.Step: %v allocs, a bare sim.Server.Step %v", got, bareAllocs)
	}
	t.Logf("allocs per interval: bare step %v", bareAllocs)
}

// An observation the loop returned at t is unchanged after the Observe at
// t+1, whatever t+1 observed; its storage is reused at t+2.
func TestLoopObservationSurvivesNextObserve(t *testing.T) {
	srv := testServer()
	lo, hi := srv.FreqRange()
	l := NewLoop(srv, fixed{SafeAssignment(srv.NumServices(), srv.ManagedCores(), lo, hi)})
	var held, before []Observation
	for i := 0; i < 8; i++ {
		copy(l.Loads(), []float64{300 + 400*float64(i%3), 900 - 200*float64(i%4)})
		res, _, err := l.Actuate()
		if err != nil {
			t.Fatal(err)
		}
		obs := l.Observe(res)
		if i > 0 && !reflect.DeepEqual(held[i-1], before[i-1]) {
			t.Fatalf("the Observe at %d changed the observation returned at %d:\n%+v\nwas\n%+v", i, i-1, held[i-1], before[i-1])
		}
		if i > 0 && reflect.DeepEqual(obs.Services, held[i-1].Services) {
			t.Fatalf("intervals %d and %d observed the same services; the check above proves nothing", i-1, i)
		}
		if i > 1 && &obs.Services[0] != &held[i-2].Services[0] {
			t.Fatalf("the Observe at %d did not reuse the storage of %d's observation", i, i-2)
		}
		held = append(held, obs)
		before = append(before, Observation{Time: obs.Time, PowerW: obs.PowerW, Services: slices.Clone(obs.Services)})
	}
}
