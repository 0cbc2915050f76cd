package sim

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/batch"
	"github.com/twig-sched/twig/internal/sim/faults"
)

// These tests pin what Step owns and what its caller owns (DESIGN.md,
// "The simulator and its fault model"): the step's working storage lives on the server and is reused,
// everything a StepResult carries is the caller's, and the server keeps
// no reference into an assignment it was handed.

func loadsFor(s *Server, frac float64) []float64 {
	loads := make([]float64, s.NumServices())
	for i := range loads {
		loads[i] = frac * s.Spec(i).Profile.MaxLoadRPS
	}
	return loads
}

// splitAlloc deals the managed cores round the services starting at core
// offset rot, leaving the last idle cores unowned, with a DVFS state and
// a cache reservation that change with rot — a different legal
// assignment for every rot.
func splitAlloc(s *Server, rot, idle int) Assignment {
	cores := s.ManagedCores()
	k := s.NumServices()
	asg := Assignment{PerService: make([]Allocation, k), IdleFreqGHz: 1.2}
	for j := 0; j < len(cores)-idle; j++ {
		a := &asg.PerService[(j+rot)%k]
		a.Cores = append(a.Cores, cores[(j+rot)%len(cores)])
	}
	for i := range asg.PerService {
		asg.PerService[i].FreqGHz = 1.2 + 0.1*float64((rot+i)%9)
		asg.PerService[i].CacheWays = (rot + i) % 4
	}
	return asg
}

func serverBytes(s *Server) []byte {
	e := checkpoint.NewEncoder()
	s.EncodeState(e)
	return e.Bytes()
}

// resultBytes flattens a StepResult with every float as its bit pattern,
// so results holding NaN (dropped sensors) compare exactly.
func resultBytes(r StepResult) []byte {
	e := checkpoint.NewEncoder()
	e.Int(r.Time)
	e.Int(len(r.Services))
	for _, sv := range r.Services {
		encodeServiceStats(e, sv)
	}
	e.Int(r.Batch.Cores)
	e.F64(r.Batch.WorkDone)
	e.F64(r.PowerW)
	e.F64(r.TruePowerW)
	e.F64(r.EnergyJ)
	e.Int(len(r.Faults))
	for _, f := range r.Faults {
		e.Int(int(f.Kind))
		e.Int(f.Service)
		e.Int(f.Core)
		e.Int(f.Counter)
		e.Int(f.Start)
		e.Int(f.Duration)
		e.F64(f.Magnitude)
	}
	return e.Bytes()
}

func hasFault(r StepResult, k faults.Kind) bool {
	for _, f := range r.Faults {
		if f.Kind == k {
			return true
		}
	}
	return false
}

func TestStepAllocsWarm(t *testing.T) {
	for _, names := range [][]string{{"masstree", "moses"}, {"memcached", "masstree", "xapian"}} {
		for _, withBatch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dsvc/batch=%v", len(names), withBatch), func(t *testing.T) {
				cfg := DefaultConfig()
				if withBatch {
					spec := batch.DefaultSpec()
					cfg.Batch = &spec
				}
				s := NewServer(cfg, specsFor(names...))
				loads := loadsFor(s, 0.4)
				asgs := []Assignment{splitAlloc(s, 0, 3), splitAlloc(s, 5, 0), splitAlloc(s, 11, 6)}
				i := 0
				step := func() {
					s.MustStep(asgs[i%len(asgs)], loads)
					i++
				}
				for w := 0; w < 60; w++ {
					step()
				}
				// One allocation is the StepResult's Services slice, which
				// the caller keeps.
				if n := testing.AllocsPerRun(100, step); n > 2 {
					t.Fatalf("warm fault-free step makes %v allocations, want ≤ 2", n)
				}
			})
		}
	}
}

func TestStepResultsAreCallerOwned(t *testing.T) {
	// Sensor and load faults at a high rate, so most results carry a
	// Faults list and NaN readings as well as the Services slice.
	fs := faults.Scenario{PMCCorruptPerKs: 300, LatencyDropPerKs: 200, LoadSpikePerKs: 200, MaxFaultS: 3}
	s := faultyServer(fs, 3, "masstree", "moses")
	loads := loadsFor(s, 0.4)
	for t0 := 0; t0 < 20; t0++ {
		s.MustStep(splitAlloc(s, t0, 2), loads)
	}
	var kept []StepResult
	var want [][]byte
	withFaults := 0
	for t0 := 20; t0 < 24; t0++ {
		r := s.MustStep(splitAlloc(s, t0, 2), loads)
		kept = append(kept, r)
		want = append(want, resultBytes(r))
		if len(r.Faults) > 0 {
			withFaults++
		}
	}
	if withFaults == 0 {
		t.Fatal("no kept result carries a fault list; raise the rates")
	}
	for t0 := 24; t0 < 34; t0++ {
		s.MustStep(splitAlloc(s, 3*t0+1, t0%5), loadsFor(s, 0.1+0.05*float64(t0%7)))
	}
	for i, r := range kept {
		if !bytes.Equal(resultBytes(r), want[i]) {
			t.Fatalf("result of step %d changed while later steps ran", 20+i)
		}
	}
}

func TestStepDoesNotRetainCallerAssignment(t *testing.T) {
	// Two servers on one fault schedule get the same assignments; one
	// caller scribbles over each assignment as soon as Step returns. On a
	// dropped actuation the server falls back on what it last applied
	// (its cache reservations feed the interference model), so a
	// retained reference would split the trajectories or the checkpoints.
	fs := faults.Scenario{ActuationDropPerKs: 250, MaxFaultS: 2}
	clean := faultyServer(fs, 21, "masstree", "moses")
	scribbled := faultyServer(fs, 21, "masstree", "moses")
	loads := loadsFor(clean, 0.5)
	dropsAfterApply, applied := 0, false
	for t0 := 0; t0 < 120; t0++ {
		want := clean.MustStep(splitAlloc(clean, t0, 2), loads)
		asg := splitAlloc(scribbled, t0, 2)
		got := scribbled.MustStep(asg, loads)
		for i := range asg.PerService {
			a := &asg.PerService[i]
			for j := range a.Cores {
				a.Cores[j] = 0
			}
			a.CacheWays, a.FreqGHz = 19, 0.1
		}
		asg.IdleFreqGHz = 7
		if !bytes.Equal(resultBytes(got), resultBytes(want)) {
			t.Fatalf("interval %d: result depends on what the caller did to the previous assignment", t0)
		}
		if !bytes.Equal(serverBytes(scribbled), serverBytes(clean)) {
			t.Fatalf("interval %d: checkpoint depends on what the caller did to the assignment", t0)
		}
		if hasFault(want, faults.ActuationDrop) {
			if applied {
				dropsAfterApply++
			}
		} else {
			applied = true
		}
	}
	if dropsAfterApply == 0 {
		t.Fatal("no actuation was dropped after one was applied; the test exercised nothing")
	}
}

// A restored server holds an exactly-sized last-applied assignment; the
// steps after the restore reuse that storage for a larger and then a
// smaller one. The restored server must apply, on the next dropped
// actuation, what an uninterrupted server applies, and encode the same.
func TestRestoreThenReuseAppliedAssignment(t *testing.T) {
	fs := faults.Scenario{ActuationDropPerKs: 250, MaxFaultS: 2}
	orig := faultyServer(fs, 33, "masstree", "moses")
	loads := loadsFor(orig, 0.5)
	for t0 := 0; t0 < 15; t0++ {
		orig.MustStep(splitAlloc(orig, t0, 9), loads)
	}
	restored := faultyServer(fs, 33, "masstree", "moses")
	if err := restored.DecodeState(checkpoint.NewDecoder(serverBytes(orig))); err != nil {
		t.Fatalf("restore: %v", err)
	}
	drops := 0
	for t0 := 15; t0 < 120; t0++ {
		// Alternate wide and narrow assignments: more cores than the
		// restored storage holds, then fewer.
		idle := 0
		if t0%2 == 1 {
			idle = 14
		}
		want := orig.MustStep(splitAlloc(orig, t0, idle), loads)
		got := restored.MustStep(splitAlloc(restored, t0, idle), loads)
		if !bytes.Equal(resultBytes(got), resultBytes(want)) {
			t.Fatalf("interval %d: restored server diverged", t0)
		}
		if !bytes.Equal(serverBytes(restored), serverBytes(orig)) {
			t.Fatalf("interval %d: restored server encodes differently", t0)
		}
		if hasFault(want, faults.ActuationDrop) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no actuation was dropped after the restore; the test exercised nothing")
	}
}
