package bdq

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/nn"
)

// The network declares GatedInput on every dense but the first
// (NewNetwork), and the backward pass then multiplies the live × live
// block only (DESIGN.md, "The training step and its kernel tiers").
// These tests hold the declaration to its
// promise: switching it off changes no bit of any gradient, moment or
// weight, on any tier.

// ungate withdraws NewNetwork's declaration, which leaves a backward pass
// that computes every input-gradient column.
func ungate(n *Network) {
	for _, d := range n.Denses() {
		d.GatedInput = false
	}
}

func paperSpec() Spec {
	return Spec{
		StateDim:     22,
		Agents:       2,
		Dims:         []int{18, 9},
		SharedHidden: []int{512, 256},
		BranchHidden: 128,
		Dropout:      0.5,
	}
}

func TestNewNetworkDeclaresGating(t *testing.T) {
	for i, d := range NewNetwork(paperSpec(), rand.New(rand.NewSource(1))).Denses() {
		if first := i == 0; d.NoInputGrad != first || d.GatedInput == first {
			t.Fatalf("%s: NoInputGrad %t, GatedInput %t", d.W.Name, d.NoInputGrad, d.GatedInput)
		}
	}
}

// TestGatedNetworkBitEqualsUngated: the paper-shape network with dropout,
// forward, backward and Adam over seeded minibatches whose loss gradient
// has the training loss's shape (one action per branch and row), with no
// unit dead, with what initialisation and dropout leave dead, and with the
// whole first layer dead. Every Q, dW, db and stepped weight must be equal
// in every bit with the declaration and without.
func TestGatedNetworkBitEqualsUngated(t *testing.T) {
	tiertest.EachLower(t)
	spec := paperSpec()
	for _, mode := range []string{"none dead", "natural", "all dead"} {
		gated := NewNetwork(spec, rand.New(rand.NewSource(21)))
		plain := NewNetwork(spec, rand.New(rand.NewSource(21)))
		ungate(plain)
		for _, n := range []*Network{gated, plain} {
			for i, d := range n.Denses() {
				switch {
				case mode == "none dead" && d.FuseReLU:
					// A large bias over the data, then non-negative weights
					// over positive activations: every unit fires every time.
					for j := range d.Out { // a bias's panels are its values in order
						d.B.Panels.Data[j] += 50
					}
					for j, w := range d.W.Panels.Data {
						if i > 0 {
							d.W.Panels.Data[j] = math.Abs(w)
						}
					}
				case mode == "all dead" && i == 0:
					for j := range d.Out {
						d.B.Panels.Data[j] = -1e6
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(4))
		optG, optP := nn.NewAdam(0.0025), nn.NewAdam(0.0025)
		gated.SetOptimizer(accumulate{optG})
		plain.SetOptimizer(accumulate{optP})
		states := mat.New(64, spec.StateDim)
		gradQ := make([][]*mat.Matrix, spec.Agents)
		for k := range gradQ {
			for _, na := range spec.Dims {
				gradQ[k] = append(gradQ[k], mat.New(64, na))
			}
		}
		sawDead := false
		for step := 0; step < 3; step++ {
			for i := range states.Data {
				states.Data[i] = rng.Float64()
			}
			for k := range gradQ {
				for _, g := range gradQ[k] {
					g.Zero()
					for b := 0; b < g.Rows; b++ {
						g.Set(b, rng.Intn(g.Cols), rng.NormFloat64())
					}
				}
			}
			qg, qp := gated.Forward(states, true), plain.Forward(states, true)
			for k := range qg.Q {
				for d := range qg.Q[k] {
					requireBits(t, mode+": Q", qg.Q[k][d].Data, qp.Q[k][d].Data)
				}
			}
			gated.ZeroGrad()
			plain.ZeroGrad()
			optG.Open()
			optP.Open()
			gated.Backward(gradQ)
			plain.Backward(gradQ)
			for i, pg := range gated.Params() {
				requireBits(t, mode+": grad of "+pg.Name, pg.Grad.Data, plain.Params()[i].Grad.Data)
			}
			for _, l := range gated.LiveFractions() {
				sawDead = sawDead || l.Live < l.Width
			}
			for i, pg := range gated.Params() {
				requireBits(t, mode+": "+pg.Name, pg.Panels.Data, plain.Params()[i].Panels.Data)
			}
		}
		if sawDead != (mode != "none dead") {
			t.Fatalf("%s: a layer saw a dead input: %t", mode, sawDead)
		}
	}
}

func requireBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s[%d]: %x (%v), want %x (%v)", tag, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
		}
	}
}
