package bdq

import (
	"reflect"
	"testing"

	"github.com/twig-sched/twig/internal/replay"
)

// floatStorage sums the float64 elements (capacity, not length) of every
// distinct backing array reachable from v through pointers, structs and
// slices, whatever the fields are called: what a tensor holds resident.
func floatStorage(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return floatStorage(v.Elem(), seen)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += floatStorage(v.Field(i), seen)
		}
		return n
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Float64 || v.Cap() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return v.Cap()
	}
	return 0
}

// TestLearnerHoldsFiveArrays pins the learner's resident state after one
// training step at a small shape with ragged heads: every float64 its
// parameters reach, walked by reflection, is exactly five arrays' worth —
// the online network's panels, gradient and two Adam moments and the
// target network's panels, nothing else. Panels are padded to whole
// panels of eight columns and counted so; the gradient and moments are
// row-major. A second copy of the weights (row-major values beside the
// panels, or a target gradient) fails it.
func TestLearnerHoldsFiveArrays(t *testing.T) {
	cfg := poolTestCfg(1)
	a := NewAgent(cfg)
	K, dim := cfg.Spec.Agents, cfg.Spec.StateDim
	for tt := 0; a.trainSteps == 0; tt++ {
		a.Observe(replay.Transition{
			State: testState(dim, 0, tt), Actions: make([]int, K*len(cfg.Spec.Dims)),
			Rewards: testRewards(K, 0, tt), NextState: testState(dim, 0, tt+1),
		})
	}
	if a.trainSteps != 1 {
		t.Fatalf("%d training steps, want 1", a.trainSteps)
	}
	padded := func(in, out int) int { return in * ((out + 7) / 8 * 8) }
	var panels, rowMajor int
	for _, d := range a.online.Denses() {
		panels += padded(d.In, d.Out) + padded(1, d.Out)
		rowMajor += d.In*d.Out + d.Out
	}
	want := 2*panels + 3*rowMajor // panels of both networks; gradient, m and v of the online
	seen := map[uintptr]bool{}
	got := 0
	for _, n := range []*Network{a.online, a.target} {
		for _, p := range n.Params() {
			got += floatStorage(reflect.ValueOf(p), seen)
		}
	}
	if got != want {
		t.Fatalf("the learner holds %d float64s (%.2f arrays' worth), want %d: two networks' panels (%d each) and the online's gradient, m and v (%d each)",
			got, float64(got)/float64(rowMajor), want, panels, rowMajor)
	}
}
