package bdq

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
)

// TestAccumulationTargetsHoldNoNegativeZero is the accumulating products'
// precondition over real training (mat.MulTransAAcc: they add nothing to
// the elements whose sum is +0, which is exact only where the target
// holds no −0). At the quick shape and at the paper's with dropout on,
// through real TrainSteps whose live counts vary, every target a layer's
// backward products add to — its W.Grad and B.Grad, and the input-gradient
// sum it accumulates into (sharedGrad, combined) — must hold no −0 at the
// moment they do.
func TestAccumulationTargetsHoldNoNegativeZero(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shared        []int
		branch, batch int
		dropout       float64
	}{
		{"quick_64-48-32_batch32", []int{64, 48}, 32, 32, 0},
		{"paper_512-256-128_batch64_dropout", []int{512, 256}, 128, 64, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				StateDim:     22,
				Agents:       2,
				Dims:         []int{18, 9},
				SharedHidden: tc.shared,
				BranchHidden: tc.branch,
				Dropout:      tc.dropout,
			}
			a := NewAgent(AgentConfig{Spec: spec, BatchSize: tc.batch, ReplayCapacity: 4096, UsePER: true, TrainPerStep: 3, Seed: 5})
			checked, sums := 0, 0
			a.online.beforeBackward = func(d *nn.Dense, sum *mat.Matrix) {
				for _, target := range []*mat.Matrix{d.W.Grad, d.B.Grad, sum} {
					if target == nil {
						continue
					}
					for i, v := range target.Data {
						if v == 0 && math.Signbit(v) {
							t.Fatalf("train step %d: %s's backward accumulates into a %dx%d target holding −0 at %d",
								a.trainSteps, d.W.Name, target.Rows, target.Cols, i)
						}
					}
				}
				checked++
				if sum != nil {
					sums++
				}
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 2*tc.batch+20; i++ {
				tr := replay.Transition{
					State:     make([]float64, spec.StateDim),
					NextState: make([]float64, spec.StateDim),
					Actions:   []int{rng.Intn(18), rng.Intn(9), rng.Intn(18), rng.Intn(9)},
					Rewards:   []float64{rng.NormFloat64(), rng.NormFloat64()},
				}
				for j := range tr.State {
					tr.State[j], tr.NextState[j] = rng.Float64(), rng.Float64()
				}
				a.Observe(tr)
			}
			if a.trainSteps < 30 || sums == 0 {
				t.Fatalf("%d train steps, %d layer backwards checked, %d of them accumulating their input gradient: the test exercises nothing", a.trainSteps, checked, sums)
			}
			dead := false
			for _, l := range a.Online().LiveFractions() {
				dead = dead || l.Live < l.Width
			}
			if !dead {
				t.Fatal("no layer saw a dead input column: no product left anything out")
			}
		})
	}
}
