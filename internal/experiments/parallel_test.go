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

// TestParallelCellsByteIdentical verifies the experiment fan-out's core
// guarantee: running cells on par.For's workers produces exactly the
// result of a serial sweep (GOMAXPROCS=1), because every cell owns its
// server, controller, RNG chain and hook state and writes to an
// index-fixed slot. The transfer figures' cells share one trained donor.
func TestParallelCellsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := tinyScale()
	figures := []struct {
		name string
		run  func() any
	}{
		{"Fig5", func() any { return Fig5([]string{"masstree"}, sc, 7) }},
		{"AblationReplay", func() any { return AblationReplay(sc, 7) }},
		{"Fig6", func() any { return Fig6(sc, 7) }},
		{"Fig8", func() any { return Fig8(sc, 7) }},
		{"FigFault/hostile", func() any { return figFault(sc, 7, []string{"hostile"}) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range figures {
		runtime.GOMAXPROCS(1)
		serial := f.run()
		runtime.GOMAXPROCS(4)
		parallel := f.run()
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\nserial:   %+v\nparallel: %+v", f.name, serial, parallel)
		}
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
