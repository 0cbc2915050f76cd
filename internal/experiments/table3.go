package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// Table3Result reproduces Table III: the per-interval overhead of
// running Twig. The paper reports 25 ms (GPU) / 48 ms (CPU) for the
// gradient-descent computation, 2 ms for PMC gathering/pre-processing,
// 7 ms for core allocation + DVFS changes, and 352 B/s of PMC data per
// service. Our numbers are CPU-only Go.
type Table3Result struct {
	GradientDescent time.Duration
	PMCGather       time.Duration
	Mapping         time.Duration
	Total           time.Duration
	// PMCDataBytes is the per-second PMC payload per service: 11
	// float64 counters plus the metadata the paper counts (352 B/s).
	PMCDataBytes int
}

// Table3 measures the overheads with the paper-size network (512/256
// shared, 128 per branch) over iters repetitions.
func Table3(iters int) Table3Result {
	sc := PaperScale()
	k := 2
	cfg := sc.AgentConfig
	cfg.Spec.StateDim, cfg.Spec.Agents, cfg.Spec.Dims = k*int(pmc.NumCounters), k, []int{18, 9}
	cfg.Seed = 1
	agent := bdq.NewAgent(cfg)
	state := make([]float64, cfg.Spec.StateDim)
	for i := range state {
		state[i] = 0.3
	}
	// Warm the replay buffer.
	for i := 0; i < 2*sc.BatchSize; i++ {
		acts := agent.SelectActions(state)
		flat := []int{acts[0][0], acts[0][1], acts[1][0], acts[1][1]}
		agent.Observe(replay.Transition{State: state, Actions: flat, Rewards: []float64{1, 1}, NextState: state})
	}

	var res Table3Result
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		agent.TrainStep()
	}
	res.GradientDescent = time.Since(t0) / time.Duration(iters)

	monitor := core.NewMonitor(k, 5)
	samples := make([]pmc.Sample, k)
	t0 = time.Now()
	for i := 0; i < iters*10; i++ {
		monitor.Observe(samples)
	}
	res.PMCGather = time.Since(t0) / time.Duration(iters*10)

	cores := make([]int, 18)
	for i := range cores {
		cores[i] = i
	}
	mapper := core.NewMapper(cores)
	reqs := []core.Request{{Cores: 7, FreqGHz: 1.6}, {Cores: 9, FreqGHz: 1.8}}
	t0 = time.Now()
	for i := 0; i < iters*10; i++ {
		mapper.Map(reqs)
	}
	res.Mapping = time.Since(t0) / time.Duration(iters*10)

	res.Total = res.GradientDescent + res.PMCGather + res.Mapping
	res.PMCDataBytes = int(pmc.NumCounters) * 8 * 4 // 4 samples/s like the paper's 352 B/s
	return res
}

// String renders a Table III analogue.
func (r Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table III: per-interval Twig overhead (CPU-only Go)\n")
	fmt.Fprintf(&b, "  gradient descent  %10v   (paper: 25 ms GPU / 48 ms CPU)\n", r.GradientDescent.Round(time.Microsecond))
	fmt.Fprintf(&b, "  PMC gather+smooth %10v   (paper: 2 ms)\n", r.PMCGather.Round(time.Microsecond))
	fmt.Fprintf(&b, "  core/DVFS mapping %10v   (paper: 7 ms, dominated by sysfs)\n", r.Mapping.Round(time.Microsecond))
	fmt.Fprintf(&b, "  total             %10v   (paper: 34 ms GPU / 57 ms CPU)\n", r.Total.Round(time.Microsecond))
	fmt.Fprintf(&b, "  PMC data per service: %d B/s (paper: 352 B/s)\n", r.PMCDataBytes)
	return b.String()
}
