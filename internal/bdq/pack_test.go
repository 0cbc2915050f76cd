package bdq

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/rng"
)

// refTensor is the row-major reference model of one parameter: the
// values and Adam moments a tensor without panels holds.
type refTensor struct {
	name        string
	rows, cols  int
	value, m, v []float64
}

// refModel reads the reference model of params out of their checkpoint
// encoding, which stores every tensor row-major: the codec's half of the
// round trip.
func refModel(t *testing.T, params []*nn.Param) []*refTensor {
	t.Helper()
	e := checkpoint.NewEncoder()
	nn.EncodeParams(e, params)
	d := checkpoint.NewDecoder(e.Bytes())
	out := make([]*refTensor, d.Int())
	for i := range out {
		r := &refTensor{name: d.String(), rows: d.Int(), cols: d.Int(), value: d.F64s()}
		if d.Bool() {
			r.m, r.v = d.F64s(), d.F64s()
		} else {
			r.m, r.v = make([]float64, len(r.value)), make([]float64, len(r.value))
		}
		out[i] = r
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("reading the reference model: %v, %d bytes left", err, d.Remaining())
	}
	return out
}

// clone returns an independent copy of the model.
func cloneModel(ref []*refTensor) []*refTensor {
	out := make([]*refTensor, len(ref))
	for i, r := range ref {
		c := *r
		c.value, c.m, c.v = mat.Clone(r.value), mat.Clone(r.m), mat.Clone(r.v)
		out[i] = &c
	}
	return out
}

// adam is the reference optimiser step, nn's scalar loop (adamScalar)
// restated over the row-major tensor, at the optimiser's step count n
// (one Adam step per train step).
func (r *refTensor) adam(grad []float64, opt *nn.Adam, n int) {
	step := float64(n)
	b1, omb1, b2, omb2 := opt.Beta1, 1-opt.Beta1, opt.Beta2, 1-opt.Beta2
	c1, c2 := 1-math.Pow(opt.Beta1, step), 1-math.Pow(opt.Beta2, step)
	for i, g := range grad {
		m := b1*r.m[i] + omb1*g
		v := b2*r.v[i] + omb2*g*g
		r.m[i], r.v[i] = m, v
		r.value[i] -= opt.LR * (m / c1) / (math.Sqrt(v/c2) + opt.Epsilon)
	}
}

// requireModel holds every parameter of n to the reference: its values
// unpacked from the panels bit for bit, the panels' pad lanes +0, and the
// Finite bit what a scan of the reference values says.
func requireModel(t *testing.T, tag string, n *Network, ref []*refTensor) {
	t.Helper()
	for i, p := range n.Params() {
		r := ref[i]
		if p.Name != r.name || p.Panels.K != r.rows || p.Panels.N != r.cols {
			t.Fatalf("%s: param %d is %s %dx%d, the reference %s %dx%d", tag, i, p.Name, p.Panels.K, p.Panels.N, r.name, r.rows, r.cols)
		}
		requireBits(t, tag+": "+p.Name, unpack(p.Panels).Data, r.value)
		held := make([]bool, len(p.Panels.Data))
		for row := 0; row < r.rows; row++ {
			for j := 0; j < r.cols; j++ {
				held[j/mat.PanelWidth*r.rows*mat.PanelWidth+row*mat.PanelWidth+j%mat.PanelWidth] = true
			}
		}
		for j, x := range p.Panels.Data {
			if !held[j] && math.Float64bits(x) != 0 {
				t.Fatalf("%s: %s pad lane %d holds %v", tag, p.Name, j, x)
			}
		}
		finite := true
		for _, x := range r.value {
			finite = finite && !math.IsInf(x, 0) && !math.IsNaN(x)
		}
		if p.Panels.Finite != finite {
			t.Fatalf("%s: %s says Finite %t, a scan of the reference %t", tag, p.Name, p.Panels.Finite, finite)
		}
	}
}

// TestPackFollowsEveryWeightWriter is the one-copy layout's round trip:
// the panels are every weight's only storage, so each writer — an
// optimiser step on full-panel (widths 32, 16, 8 here) and ragged (5, 4,
// 1) tensors and on biases, a target sync, Transfer's re-initialisation,
// CopyWeightsFrom, a checkpoint DecodeState, a non-finite weight brought
// in — must leave the unpacked weights and the Finite bit of both
// networks equal to a row-major reference model that the same writer
// updated, bit for bit: Adam's by the scalar loop over the gradients the
// backward pass handed over, InitHe's by the same draws filled row-major.
// The target network never holds a gradient.
func TestPackFollowsEveryWeightWriter(t *testing.T) {
	tiertest.EachLower(t)
	cfg := poolTestCfg(3)
	a, donor := NewAgent(cfg), NewAgent(poolTestCfg(4))
	K, dim := cfg.Spec.Agents, cfg.Spec.StateDim
	tt := 0
	observe := func(ag *Agent, who int) {
		tt++
		ag.Observe(replay.Transition{
			State: testState(dim, who, tt), Actions: make([]int, K*len(cfg.Spec.Dims)),
			Rewards: testRewards(K, who, tt), NextState: testState(dim, who, tt+1),
		})
	}
	for who, ag := range []*Agent{a, donor} {
		for ag.ReplayLen() < cfg.WarmupSteps {
			observe(ag, who)
		}
	}
	online, target := refModel(t, a.online.Params()), refModel(t, a.target.Params())
	check := func(tag string) {
		t.Helper()
		requireModel(t, tag+": online", a.online, online)
		requireModel(t, tag+": target", a.target, target)
		for _, p := range a.target.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: target %s holds a gradient", tag, p.Name)
			}
		}
	}
	check("fresh")

	// trainStep is Agent.TrainStep with the gradients each layer hands
	// the optimiser copied on the way (accumulate into a cleared Grad).
	a.online.SetOptimizer(accumulate{a.opt})
	trainStep := func(tag string) {
		t.Helper()
		ws := a.trainWorkspace()
		n := a.trainSample()
		a.trainArgmax(a.online.Forward(ws.next, false), n)
		targetNext := a.target.Forward(ws.next, false)
		a.trainTargets(targetNext, n)
		a.online.ZeroGrad()
		a.trainBackprop(targetNext, n)
		grads := make([][]float64, len(online))
		for i, p := range a.online.Params() {
			grads[i] = mat.Clone(p.Grad.Data)
		}
		a.trainCommit()
		for i, r := range online {
			r.adam(grads[i], a.opt, a.trainSteps)
		}
		if a.trainSteps%cfg.TargetSync == 0 {
			target = cloneModel(online)
		}
		check(tag)
	}
	for i := 0; i < cfg.TargetSync+2; i++ {
		trainStep("optimiser step / target sync")
	}

	// Transfer re-draws the output layers from the agent's stream: the
	// reference fills the same draws row-major from a copy of it.
	e := checkpoint.NewEncoder()
	a.rng.Source().EncodeState(e)
	draws := rng.New(0)
	if err := draws.Source().DecodeState(checkpoint.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	outputs := map[string]bool{}
	for _, p := range a.online.OutputParams() {
		outputs[p.Name] = true
	}
	a.Transfer(0)
	for _, d := range a.online.Denses() {
		if !outputs[d.W.Name] {
			continue
		}
		std := math.Sqrt(2.0 / float64(d.In))
		for i, r := range online {
			switch r.name {
			case d.W.Name:
				for j := range r.value {
					r.value[j] = draws.NormFloat64() * std
				}
			case d.B.Name:
				clear(r.value)
			default:
				continue
			}
			online[i].m, online[i].v = make([]float64, len(r.value)), make([]float64, len(r.value))
		}
	}
	target = cloneModel(online)
	check("Transfer")
	trainStep("a step after Transfer")

	donorModel := refModel(t, donor.online.Params())
	a.CopyWeightsFrom(donor)
	for i, r := range online {
		r.value = mat.Clone(donorModel[i].value)
	}
	target = cloneModel(online)
	check("CopyWeightsFrom")
	trainStep("a step after CopyWeightsFrom")

	if err := a.DecodeState(checkpoint.NewDecoder(encodeAgent(donor))); err != nil {
		t.Fatal(err)
	}
	online, target = refModel(t, donor.online.Params()), refModel(t, donor.target.Params())
	check("DecodeState")
	trainStep("a step after DecodeState")

	// A writer that brings a non-finite weight clears that layer's Finite
	// bit, and the steps over it keep every bit what a scan says.
	w := donor.online.Denses()[1].W
	vals := unpack(w.Panels)
	vals.Set(0, 3, math.Inf(1))
	w.Panels.RepackFrom(vals)
	if w.Panels.Finite {
		t.Fatal("panels holding +Inf say Finite")
	}
	donorModel = refModel(t, donor.online.Params())
	a.CopyWeightsFrom(donor)
	for i, r := range online {
		r.value = mat.Clone(donorModel[i].value)
	}
	target = cloneModel(online)
	check("CopyWeightsFrom of a non-finite weight")
	trainStep("a step over a non-finite weight")
}
