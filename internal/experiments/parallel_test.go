package experiments

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/service"
)

// TestParallelCellsByteIdentical verifies the concurrent experiment
// runner's core guarantee: fanning cells out over workers produces
// exactly the result of a serial sweep, because every cell owns its
// server, controller and RNG chain and writes to an index-fixed slot.
func TestParallelCellsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := tinyScale()
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	serialFig5 := Fig5([]string{"masstree"}, sc, 7)
	serialAbl := AblationReplay(sc, 7)
	SetParallelism(4)
	parallelFig5 := Fig5([]string{"masstree"}, sc, 7)
	parallelAbl := AblationReplay(sc, 7)

	if !reflect.DeepEqual(serialFig5, parallelFig5) {
		t.Fatalf("Fig5 differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialFig5, parallelFig5)
	}
	if !reflect.DeepEqual(serialAbl, parallelAbl) {
		t.Fatalf("AblationReplay differs between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serialAbl, parallelAbl)
	}
}

// setUpBits is the set-up work that fans out over GOMAXPROCS, as float
// bits: one service's Eq. 2 profiling samples, the model fitted to
// them, and every trace of the three scenario presets.
func setUpBits(t *testing.T) []uint64 {
	t.Helper()
	var out []uint64
	f := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	spec := sim.ServiceSpec{Profile: service.MustLookup("masstree"), Seed: 77}
	for _, s := range core.ProfilePower(spec, sim.DefaultConfig(), 12) {
		f(s.LoadFrac, s.OfferedFrac, float64(s.Cores), s.FreqGHz, s.DynamicW)
	}
	f(modelFloats(fitPowerModel("masstree"))...)
	for _, name := range []string{"cloud-edge", "agentic-burst", "diurnal"} {
		worlds, err := scenario.MustNamed(name).Worlds(11)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range worlds {
			for _, tr := range w.Traces {
				for s := 0; s < tr.Len(); s++ {
					f(tr.RPS(s))
				}
			}
		}
	}
	return out
}

// TestSetUpByteIdenticalAtAnyProcs checks the set-up fan-out (the
// profiling grid, the scenario traces) gives the serial run's bits at
// any worker count: every result lands in a slot fixed by its index.
func TestSetUpByteIdenticalAtAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := setUpBits(t)
	runtime.GOMAXPROCS(4)
	parallel := setUpBits(t)
	if len(serial) != len(parallel) {
		t.Fatalf("%d values at GOMAXPROCS 1, %d at 4", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("value %d: %#x at GOMAXPROCS 1, %#x at 4", i, serial[i], parallel[i])
		}
	}
}

// TestCalibrationCachesConcurrent asks fresh caches for several
// services from many goroutines at once (run under -race in CI): each
// name is computed once, and every caller gets the serial value's bits.
func TestCalibrationCachesConcurrent(t *testing.T) {
	names := []string{"masstree", "xapian", "moses"}
	wantQoS := make([]float64, len(names))
	wantPM := make([]*core.PowerModel, len(names))
	for i, n := range names {
		wantQoS[i] = calibrateQoS(n)
		wantPM[i] = fitPowerModel(n)
	}
	var qos onceByKey[string, float64]
	var pm onceByKey[string, *core.PowerModel]
	var calls [2]atomic.Int32
	const callers = 4
	var wg sync.WaitGroup
	for g := range callers * len(names) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(names)
			q := qos.get(names[i], func(n string) float64 { calls[0].Add(1); return calibrateQoS(n) })
			m := pm.get(names[i], func(n string) *core.PowerModel { calls[1].Add(1); return fitPowerModel(n) })
			if math.Float64bits(q) != math.Float64bits(wantQoS[i]) {
				t.Errorf("%s: QoS target %v, serial %v", names[i], q, wantQoS[i])
			}
			if !sameBits(modelFloats(m), modelFloats(wantPM[i])) {
				t.Errorf("%s: power model %+v, serial %+v", names[i], *m, *wantPM[i])
			}
		}()
	}
	wg.Wait()
	if q, p := calls[0].Load(), calls[1].Load(); q != int32(len(names)) || p != int32(len(names)) {
		t.Errorf("%d QoS calibrations and %d power fits for %d names", q, p, len(names))
	}
}

// modelFloats lists every float of a fitted Eq. 2 model.
func modelFloats(m *core.PowerModel) []float64 {
	return []float64{m.Kappa, m.Sigma, m.Omega, m.Offset, m.IdleW, m.MSE, m.R2}
}

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
