package bdq

import (
	"fmt"
	"testing"

	"github.com/twig-sched/twig/internal/replay"
)

var (
	benchActs [][]int
	benchLoss float64
)

// BenchmarkPoolFlush is where the pool earns its place or does not: S
// same-shaped agents driven through the queue API (queue, one FlushStep,
// take) beside the solo loop over S agents built from the same configs,
// as ns/agent. "select" is what the pool batches — S greedy selections
// as one grouped forward against S batch-1 forwards; "train+select" is a
// whole control interval per member, whose training half is the same
// Agent.Observe on both sides, so its ratio says how much of an interval
// the batched half is. The trunk is sized so the S=36 weight set stays
// cache-resident (~650 KB); S=144 shows the memory wall on both paths.
// Read the train rows at a fixed count (-benchtime 1000x): a step gets
// slower the longer these agents have trained (past ~7 000 steps Adam's
// first moments behind dead units are denormal; a ROADMAP item), so a
// time-based run compares sides at different ages.
func BenchmarkPoolFlush(b *testing.B) {
	spec := Spec{
		StateDim:     22,
		Agents:       2,
		Dims:         []int{18, 9},
		SharedHidden: []int{32, 16},
		BranchHidden: 8,
	}
	cfg := func(i int) AgentConfig {
		return AgentConfig{Spec: spec, BatchSize: 8, ReplayCapacity: 256, Seed: int64(1 + i)}
	}
	transition := func(i, t int) replay.Transition {
		return replay.Transition{
			State:     testState(spec.StateDim, i, t),
			Actions:   []int{t % 18, t % 9, (t + i) % 18, (t + 1) % 9},
			Rewards:   testRewards(spec.Agents, i, t),
			NextState: testState(spec.StateDim, i, t+1),
		}
	}
	const ring = 32 // distinct transitions per agent, so minibatches vary
	perAgent := func(b *testing.B, S int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(S), "ns/agent")
	}
	for _, mode := range []struct {
		name  string
		train bool
		sizes []int
	}{
		{"select", false, []int{1, 8, 36, 144}},
		{"train+select", true, []int{1, 8, 36}},
	} {
		for _, S := range mode.sizes {
			trs := make([][]replay.Transition, S)
			for i := range trs {
				for t := 0; t < ring; t++ {
					trs[i] = append(trs[i], transition(i, t))
				}
			}
			solo := make([]*Agent, S)
			pool := NewAgentPool()
			pooled := make([]*PooledAgent, S)
			for i := 0; i < S; i++ {
				solo[i] = NewAgent(cfg(i))
				pooled[i] = pool.Attach(NewAgent(cfg(i)))
			}
			soloStep := func(t int) {
				for i, a := range solo {
					tr := trs[i][t%ring]
					if mode.train {
						benchLoss = a.Observe(tr)
						benchActs = a.SelectActions(tr.NextState)
					} else {
						benchActs = a.SelectGreedy(tr.NextState)
					}
				}
			}
			pooledStep := func(t int) {
				for i, pa := range pooled {
					tr := trs[i][t%ring]
					if mode.train {
						pa.QueueObserve(tr)
					}
					pa.QueueSelect(tr.NextState, !mode.train)
				}
				pool.FlushStep()
				for _, pa := range pooled {
					benchActs = pa.TakeActions()
				}
			}
			for t := 0; t < ring; t++ { // past warm-up: every further Observe trains
				soloStep(t)
				pooledStep(t)
			}
			b.Run(fmt.Sprintf("%s/S=%d/solo", mode.name, S), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					soloStep(i)
				}
				perAgent(b, S)
			})
			b.Run(fmt.Sprintf("%s/S=%d/pooled", mode.name, S), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pooledStep(i)
				}
				perAgent(b, S)
			})
		}
	}
}
