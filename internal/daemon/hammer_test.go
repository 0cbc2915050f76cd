package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHammerAdmitDrainWhilePoolSteps races the admission API against
// the control loop: while Step() drives the manager, concurrent
// goroutines admit, drain and delete services as fast as the API lets
// them. Membership churn maps to controller rebuilds, a fresh learner
// each; run under -race this proves the rebuild and the registry
// synchronised against the loop. Expected lifecycle conflicts (drain of
// a pending service, duplicate admit) are fine — panics, races and a
// wedged control loop are not.
func TestHammerAdmitDrainWhilePoolSteps(t *testing.T) {
	e, err := New(Config{Scale: tinyScale(), Seed: 99},
		[]AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}

	const steps = 150
	var stop atomic.Bool
	var wg sync.WaitGroup
	churn := func(name string, load float64) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			switch i % 3 {
			case 0:
				e.Admit(AdmitRequest{Name: name, Load: load}) // may conflict; ignored
			case 1:
				e.Drain(name)
			default:
				e.Delete(name)
			}
			// Interleave reads the way /status and /services handlers do.
			e.Services()
			e.Status()
		}
	}
	wg.Add(2)
	go churn("xapian", 0.4)
	go churn("moses", 0.3)

	for i := 0; i < steps; i++ {
		if _, err := e.Step(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("step %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// The loop must still be healthy after the churn storm: the manager
	// decides, the world steps, and the live services are consistent
	// between the registry and the simulator.
	for i := 0; i < 10; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatalf("post-hammer step %d: %v", i, err)
		}
	}
	live := 0
	for _, v := range e.Services() {
		if v.State == "running" || v.State == "draining" {
			live++
		}
	}
	if live < 1 {
		t.Fatalf("no live services after hammer: %v", fmt.Sprint(e.Services()))
	}
}
