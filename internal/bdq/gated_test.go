package bdq

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
)

// The network declares GatedInput on every dense but the first
// (NewNetwork), and the backward pass then multiplies the live × live
// block only (DESIGN.md §5p). These tests hold the declaration to its
// promise: switching it off changes no bit of any gradient, moment or
// weight, solo or pooled, on any tier.

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
					for j := range d.B.Value.Data {
						d.B.Value.Data[j] += 50
					}
					for j, w := range d.W.Value.Data {
						if i > 0 {
							d.W.Value.Data[j] = math.Abs(w)
						}
					}
				case mode == "all dead" && i == 0:
					d.B.Value.Fill(-1e6)
				}
			}
			n.noteWeightsChanged()
		}
		rng := rand.New(rand.NewSource(4))
		optG, optP := nn.NewAdam(0.0025), nn.NewAdam(0.0025)
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
			gated.Backward(gradQ)
			plain.Backward(gradQ)
			for i, pg := range gated.Params() {
				requireBits(t, mode+": grad of "+pg.Name, pg.Grad.Data, plain.Params()[i].Grad.Data)
			}
			for _, l := range gated.LiveFractions() {
				sawDead = sawDead || l.Live < l.Width
			}
			optG.StepAndZeroGrad(gated.Params())
			optP.StepAndZeroGrad(plain.Params())
			gated.noteWeightsChanged()
			plain.noteWeightsChanged()
			for i, pg := range gated.Params() {
				requireBits(t, mode+": "+pg.Name, pg.Value.Data, plain.Params()[i].Value.Data)
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
			t.Fatalf("%s[%d]: gated %x (%v), ungated %x (%v)", tag, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
		}
	}
}

// TestPoolGatedBitEqualsUngated: the grouped backward gates each member's
// band by that band's own live set. Two pools of three members train in
// lockstep on the same transitions, one with the declaration withdrawn;
// every member's full checkpoint (weights, moments, RNG positions, replay)
// must be byte-equal — and equal to a solo agent's, gated.
func TestPoolGatedBitEqualsUngated(t *testing.T) {
	tiertest.EachLower(t)
	const members, steps = 3, 40
	cfg := func(seed int64) AgentConfig {
		c := poolTestCfg(seed)
		c.Spec.SharedHidden = []int{64, 48} // wide enough to lose whole panels
		c.Spec.BranchHidden = 32
		c.BatchSize, c.WarmupSteps = 16, 16
		return c
	}
	gatedPool, plainPool := NewAgentPool(), NewAgentPool()
	var solo []*Agent
	var gated, plain []*PooledAgent
	for i := 0; i < members; i++ {
		solo = append(solo, NewAgent(cfg(int64(40+i))))
		gated = append(gated, gatedPool.Attach(NewAgent(cfg(int64(40+i)))))
		a := NewAgent(cfg(int64(40 + i)))
		ungate(a.online)
		ungate(a.target)
		plain = append(plain, plainPool.Attach(a))
	}
	spec := cfg(0).Spec
	for tt := 0; tt < steps; tt++ {
		for i := 0; i < members; i++ {
			tr := replay.Transition{
				State:     testState(spec.StateDim, i, tt),
				Actions:   []int{tt % 5, tt % 4, (tt + i) % 5, (tt + 1) % 4},
				Rewards:   testRewards(spec.Agents, i, tt),
				NextState: testState(spec.StateDim, i, tt+1),
			}
			solo[i].Observe(tr)
			gated[i].QueueObserve(tr)
			plain[i].QueueObserve(tr)
		}
		gatedPool.FlushStep()
		plainPool.FlushStep()
	}
	dead := false
	for _, l := range gated[0].Online().LiveFractions() {
		dead = dead || l.Live < l.Width
	}
	if !dead {
		t.Fatal("no layer saw a dead input: the test gates nothing")
	}
	for i := range gated {
		want := encodeAgent(solo[i])
		if !bytes.Equal(encodeAgent(gated[i].Agent), want) {
			t.Fatalf("member %d: pooled checkpoint differs from solo", i)
		}
		if !bytes.Equal(encodeAgent(plain[i].Agent), want) {
			t.Fatalf("member %d: checkpoint without GatedInput differs from the one with", i)
		}
	}
}
