package mat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/replay"
)

// TestAgentHoldsNoNewScratch guards the learner's memory: once an agent
// has trained, every buffer a train step draws from the scratch pool goes
// back to it, so 50 more Observes leave the pool holding the same shapes,
// as many of each. A step that kept a buffer, or drew a shape it never
// gives back, grows the heap of every process running an agent — the
// daemon's peak heap above all. Both learner scales, with the two-agent
// action space the node workloads run (K = 2, dims 18 and 9).
func TestAgentHoldsNoNewScratch(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  bdq.AgentConfig
	}{{"quick", bdq.QuickAgent()}, {"paper", bdq.PaperAgent()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Spec.StateDim, cfg.Spec.Agents, cfg.Spec.Dims = 22, 2, []int{18, 9}
			cfg.Seed = 1
			agent := bdq.NewAgent(cfg)
			rng := rand.New(rand.NewSource(1))
			observe := func(n int) {
				for i := 0; i < n; i++ {
					tr := replay.Transition{
						State:     make([]float64, cfg.Spec.StateDim),
						NextState: make([]float64, cfg.Spec.StateDim),
						Actions:   []int{rng.Intn(18), rng.Intn(9), rng.Intn(18), rng.Intn(9)},
						Rewards:   []float64{rng.NormFloat64(), rng.NormFloat64()},
					}
					for j := range tr.State {
						tr.State[j], tr.NextState[j] = rng.Float64(), rng.Float64()
					}
					agent.Observe(tr)
				}
			}
			observe(2 * agent.Config().BatchSize)
			warm := mat.ScratchShapes()
			observe(50)
			if got := mat.ScratchShapes(); fmt.Sprint(got) != fmt.Sprint(warm) {
				t.Fatalf("scratch pool after 50 more Observes: %v\nwarm: %v", got, warm)
			}
		})
	}
}
