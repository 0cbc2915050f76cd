package main

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/sim"
)

// TestSummaryAccPinsMissingTardiness checks the exit summary counts an
// interval without a latency reading (a crashed service reports NaN)
// and one far past the target as experiments.Run does: each pinned at
// the penalty of 10, not dropped from the sum while still counted.
func TestSummaryAccPinsMissingTardiness(t *testing.T) {
	var acc summaryAcc
	for _, p99 := range []float64{2, math.NaN(), 60} {
		sv := sim.ServiceStats{QoSTargetMs: 2}
		sv.P99Ms = p99
		acc.add(sim.StepResult{Services: []sim.ServiceStats{sv}})
	}
	if got, want := acc.tard[0]/float64(acc.samples), (1+10+10)/3.0; got != want {
		t.Errorf("mean tardiness %v, want %v", got, want)
	}
	if acc.met[0] != 1 {
		t.Errorf("%v intervals met the target, want 1", acc.met[0])
	}
}
