package daemon

import "testing"

// A warm daemon interval with the guard on, two services running and no
// membership change or checkpoint due, makes 10 allocations, none of
// them the engine's: its live-entry list, its metric series and the
// guard's sanitised observation and validation scratch are storage
// their owners hold. What is left is what the interval hands to a
// keeper: sim.Server.Step's StepResult.Services (1); the guard's
// assignment, which the loop keeps as its last valid one, and the
// mapper's under it, each a PerService slice and one cores array
// (2 + 2); and the Twig manager's own five — the PMC samples it hands
// the monitor, the monitor's smoothed state, the rewards and the
// flattened actions of the transition the replay keeps, and the request
// slice it keeps as its previous requests. The monitor's history
// window re-slices and grows by doubling, under one allocation an
// interval.
func TestEngineStepAllocsWarm(t *testing.T) {
	e, err := New(Config{Scale: tinyScale(), Seed: 3, Guard: true}, []AdmitRequest{
		{Name: "masstree", Load: 0.5},
		{Name: "moses", Load: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Past LearnS and the ε schedule: the learner trains every interval.
	if err := e.RunTo(200, nil); err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, step); got != 10 {
		t.Errorf("warm Engine.Step: %v allocations, want 10", got)
	}
}
