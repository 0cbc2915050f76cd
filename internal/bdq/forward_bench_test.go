package bdq

import (
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/rng"
)

// BenchmarkNetworkForward times one forward pass of the two-agent network
// (K = 2, dims 18 and 9, 22 state inputs, as BenchmarkAgentObserve builds
// it) over a minibatch of seeded states: /quick at QuickAgent's shape and
// batch, /paper at PaperAgent's. train runs the trunk's dropout, where
// the spec has one, and eval the forward a train step also makes twice
// over the next states (online and target).
func BenchmarkNetworkForward(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  AgentConfig
	}{{"quick", QuickAgent()}, {"paper", PaperAgent()}} {
		spec := tc.cfg.Spec
		spec.StateDim, spec.Agents, spec.Dims = 22, 2, []int{18, 9}
		net := NewNetwork(spec, rng.New(1))
		states := mat.New(tc.cfg.BatchSize, spec.StateDim)
		r := rng.New(2)
		for i := range states.Data {
			states.Data[i] = r.Float64()
		}
		for _, train := range []bool{true, false} {
			mode := "eval"
			if train {
				mode = "train"
			}
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				net.Forward(states, train)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Forward(states, train)
				}
			})
		}
	}
}
