package experiments

import (
	"runtime"
	"testing"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// runAllocsPerInterval runs cfg (its Hook unset) and returns the
// allocations per interval over the n intervals from t = from on, in
// whole allocations as testing.AllocsPerRun counts them. The summary
// window must open after the span, which measures the interval alone,
// not the window's accounting.
func runAllocsPerInterval(t *testing.T, cfg RunConfig, from, n int) float64 {
	t.Helper()
	if cfg.SummaryFromS < from+n {
		t.Fatalf("summary window opens at %d, inside the measured span", cfg.SummaryFromS)
	}
	var ms runtime.MemStats
	var start uint64
	// The Hook fires between an interval's Actuate and its Observe, so
	// the span from the hook of from−1 to that of from+n−1 holds n
	// whole intervals.
	cfg.Hook = func(tt int, _ sim.StepResult, _ sim.Assignment) {
		switch tt {
		case from - 1:
			runtime.ReadMemStats(&ms)
			start = ms.Mallocs
		case from + n - 1:
			runtime.ReadMemStats(&ms)
		}
	}
	Run(cfg)
	return float64((ms.Mallocs - start) / uint64(n))
}

// fixedController returns one prebuilt assignment: a controller that
// allocates nothing.
type fixedController struct{ asg sim.Assignment }

func (fixedController) Name() string                             { return "fixed" }
func (f fixedController) Decide(ctrl.Observation) sim.Assignment { return f.asg }

// One warm interval of Run. The loop itself adds nothing: over a
// controller that allocates nothing, what is left is sim.Server.Step's
// StepResult.Services, which the caller keeps (1). Over a Twig manager
// it is 8: that one; the mapper's assignment, its PerService slice and
// its one cores array (2); and the manager's own five — the PMC samples
// it hands the monitor, the monitor's smoothed state, the rewards and
// the flattened actions of the transition the replay keeps, and the
// request slice it keeps as its previous requests. The monitor's
// history window re-slices and grows by doubling, under one allocation
// an interval.
func TestRunIntervalAllocsWarm(t *testing.T) {
	names := []string{"masstree", "moses"}
	patterns := []loadgen.Pattern{loadgen.Fixed(4000), loadgen.Fixed(30)}
	for _, tc := range []struct {
		name string
		ctl  func(*sim.Server) ctrl.Controller
		want float64
	}{
		{"fixed", func(srv *sim.Server) ctrl.Controller {
			lo, hi := srv.FreqRange()
			return fixedController{ctrl.SafeAssignment(srv.NumServices(), srv.ManagedCores(), lo, hi)}
		}, 1},
		{"twig", func(srv *sim.Server) ctrl.Controller { return NewTwig(srv, tinyScale(), 1, names...) }, 8},
	} {
		srv := NewServer(1, names...)
		got := runAllocsPerInterval(t, RunConfig{
			Server:       srv,
			Controller:   tc.ctl(srv),
			Patterns:     patterns,
			Seconds:      400,
			SummaryFromS: 399,
		}, 300, 50)
		if got != tc.want {
			t.Errorf("%s: %v allocations a warm interval, want %v", tc.name, got, tc.want)
		}
	}
}
