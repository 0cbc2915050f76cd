package bdq

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
)

// TestAccumulationTargetsHoldNoNegativeZero is the accumulating product's
// precondition over real training (mat.MulTransBPacked's accumulation
// precondition: it adds nothing to the elements the gate leaves out, which
// is exact only where the target holds no −0). At the quick shape and at
// the paper's with dropout on, through real TrainSteps whose live counts
// vary, every input-gradient sum a layer's backward product adds to
// (sharedGrad, combined) must hold no −0 at the moment it does. dW is
// stored, not accumulated: it has no target.
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
				checked++
				if sum == nil {
					return
				}
				sums++
				for i, v := range sum.Data {
					if v == 0 && math.Signbit(v) {
						t.Fatalf("train step %d: %s's backward accumulates into a %dx%d sum holding −0 at %d",
							a.trainSteps, d.W.Name, sum.Rows, sum.Cols, i)
					}
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

// TestFusedStepMatchesSeparateStep holds the per-layer optimiser step to
// the path it replaced: every layer's backward accumulating dW and db
// into its Grad, then one Adam.Step over every parameter (the oracle, an
// accumulate optimiser here). At the quick and the paper shape with
// dropout on, through train steps over seeded minibatches whose loss
// gradient has the training loss's shape (one action per branch and
// row) — past a moment flush at the quick shape — the weights and both
// Adam moments must be equal in every bit after every step: their
// checkpoint encodings, byte for byte.
func TestFusedStepMatchesSeparateStep(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		shared               []int
		branch, batch, steps int
	}{
		{"quick_64-48-32_batch32", []int{64, 48}, 32, 32, 130},
		{"paper_512-256-128_batch64", []int{512, 256}, 128, 64, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{StateDim: 22, Agents: 2, Dims: []int{18, 9}, SharedHidden: tc.shared, BranchHidden: tc.branch, Dropout: 0.5}
			fused, oracle := NewNetwork(spec, rand.New(rand.NewSource(3))), NewNetwork(spec, rand.New(rand.NewSource(3)))
			optF, optO := nn.NewAdam(0.0025), nn.NewAdam(0.0025)
			fused.SetOptimizer(optF)
			oracle.SetOptimizer(accumulate{})
			rng := rand.New(rand.NewSource(9))
			states := mat.New(tc.batch, spec.StateDim)
			gradQ := make([][]*mat.Matrix, spec.Agents)
			for k := range gradQ {
				for _, na := range spec.Dims {
					gradQ[k] = append(gradQ[k], mat.New(tc.batch, na))
				}
			}
			encode := func(n *Network) []byte {
				e := checkpoint.NewEncoder()
				nn.EncodeParams(e, n.Params())
				return e.Bytes()
			}
			for step := 1; step <= tc.steps; step++ {
				for i := range states.Data {
					states.Data[i] = rng.Float64()
				}
				for k := range gradQ {
					for _, g := range gradQ[k] {
						g.Zero()
						for b := 0; b < g.Rows; b++ {
							g.Set(b, rng.Intn(g.Cols), rng.NormFloat64()*1e-2)
						}
					}
				}
				fused.Forward(states, true)
				optF.Open()
				fused.Backward(gradQ)

				oracle.Forward(states, true)
				oracle.ZeroGrad()
				oracle.Backward(gradQ)
				optO.Step(oracle.Params())

				if !bytes.Equal(encode(fused), encode(oracle)) {
					for i, p := range fused.Params() {
						for j, w := range oracle.Params()[i].Panels.Data {
							if got := p.Panels.Data[j]; math.Float64bits(got) != math.Float64bits(w) {
								t.Fatalf("step %d: %s[%d] = %x stepped per layer, %x accumulated then stepped", step, p.Name, j, math.Float64bits(got), math.Float64bits(w))
							}
						}
					}
					t.Fatalf("step %d: the weights agree, the Adam moments do not", step)
				}
			}
		})
	}
}
