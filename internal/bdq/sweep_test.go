package bdq

import (
	"fmt"
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/rng"
)

// unfusedBackward is Network.Backward as separate passes over the
// gradients: each row's sum taken per pass, the heads' centring written
// out, the 1/K and 1/D rescales as Scale passes, and every layer's own
// sweep left nothing to apply.
func unfusedBackward(n *Network, gradQ [][]*mat.Matrix) {
	batch := n.lastShared.Rows
	sharedGrad := mat.New(batch, n.lastShared.Cols)
	K, D := float64(n.spec.Agents), float64(len(n.spec.Dims))
	valueStream := func(v int, agents [][]*mat.Matrix) {
		gv := mat.New(batch, 1)
		for _, gq := range agents {
			for _, g := range gq {
				for b := 0; b < batch; b++ {
					gv.Data[b] += mat.Sum(g.Row(b))
				}
			}
		}
		n.valueHid[v].BackwardAcc(n.valueOut[v].Backward(gv), sharedGrad)
	}
	if n.spec.SharedValue {
		valueStream(0, gradQ)
	} else {
		for k := range gradQ {
			valueStream(k, gradQ[k:k+1])
		}
	}
	for d, na := range n.spec.Dims {
		combined := mat.New(batch, n.spec.BranchHidden)
		for k := 0; k < n.spec.Agents; k++ {
			g, centered := gradQ[k][d], mat.New(batch, na)
			for b := 0; b < batch; b++ {
				mean := mat.Sum(g.Row(b)) / float64(na)
				for j, v := range g.Row(b) {
					centered.Set(b, j, v-mean)
				}
			}
			n.advOut[k][d].BackwardAcc(centered, combined)
		}
		combined.Scale(1 / K)
		n.advHidden[d].BackwardAcc(combined, sharedGrad)
	}
	sharedGrad.Scale(1 / D)
	n.shared.Backward(sharedGrad)
}

// TestOneSweepBackwardMatchesUnfused holds Network.Backward — row sums
// four rows a pass and shared by the value stream and the centring, the
// heads' centring, the 1/K and the 1/D left to the layers' sweeps — to the
// unfused passes bit for bit, for every K and D from one to three, with
// and without a shared value stream and dropout (a trunk topped by a
// dropout scales before it), on every tier: every gradient, moment and
// stepped weight.
func TestOneSweepBackwardMatchesUnfused(t *testing.T) {
	tiertest.EachLower(t)
	for agents := 1; agents <= 3; agents++ {
		for dims := 1; dims <= 3; dims++ {
			for _, sharedValue := range []bool{false, true} {
				for _, dropout := range []float64{0, 0.5} {
					spec := Spec{StateDim: 10, Agents: agents, Dims: []int{7, 4, 9}[:dims],
						SharedHidden: []int{24, 16}, BranchHidden: 12, Dropout: dropout, SharedValue: sharedValue}
					tag := fmt.Sprintf("K=%d D=%d shared value %t dropout %v", agents, dims, sharedValue, dropout)
					requireOneSweepBackward(t, tag, spec)
				}
			}
		}
	}
}

func requireOneSweepBackward(t *testing.T, tag string, spec Spec) {
	t.Helper()
	fused := NewNetwork(spec, rng.New(5))
	plain := NewNetwork(spec, rng.New(5))
	optF, optP := nn.NewAdam(0.0025), nn.NewAdam(0.0025)
	fused.SetOptimizer(accumulate{optF})
	plain.SetOptimizer(accumulate{optP})
	r := rng.New(9)
	const batch = 13 // three four-row passes of the row sums and one row alone
	states := mat.New(batch, spec.StateDim)
	gradQ := make([][]*mat.Matrix, spec.Agents)
	for k := range gradQ {
		for _, na := range spec.Dims {
			gradQ[k] = append(gradQ[k], mat.New(batch, na))
		}
	}
	for step := 0; step < 3; step++ {
		for i := range states.Data {
			states.Data[i] = r.NormFloat64()
		}
		for k := range gradQ {
			for _, g := range gradQ[k] {
				for i := range g.Data {
					switch r.Intn(6) {
					case 0:
						g.Data[i] = 0
					case 1:
						g.Data[i] = math.Copysign(0, -1)
					case 2:
						g.Data[i] = r.NormFloat64() * 1e-310 // subnormal
					default:
						g.Data[i] = r.NormFloat64()
					}
				}
			}
		}
		fused.Forward(states, true)
		plain.Forward(states, true)
		fused.ZeroGrad()
		plain.ZeroGrad()
		optF.Open()
		optP.Open()
		fused.Backward(gradQ)
		unfusedBackward(plain, gradQ)
		for i, pf := range fused.Params() {
			pp := plain.Params()[i]
			requireBits(t, tag+": grad of "+pf.Name, pf.Grad.Data, pp.Grad.Data)
			requireBits(t, tag+": "+pf.Name, pf.Panels.Data, pp.Panels.Data)
		}
	}
}
