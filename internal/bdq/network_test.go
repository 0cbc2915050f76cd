package bdq

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
)

func smallSpec() Spec {
	return Spec{
		StateDim:     6,
		Agents:       2,
		Dims:         []int{4, 3},
		SharedHidden: []int{16, 8},
		BranchHidden: 8,
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{StateDim: 1},
		{StateDim: 1, Agents: 1},
		{StateDim: 1, Agents: 1, Dims: []int{2}},
		{StateDim: 1, Agents: 1, Dims: []int{2}, SharedHidden: []int{4}},
		{StateDim: 1, Agents: 1, Dims: []int{0}, SharedHidden: []int{4}, BranchHidden: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d should be invalid", i)
		}
	}
	if err := smallSpec().Validate(); err != nil {
		t.Fatalf("smallSpec invalid: %v", err)
	}
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(smallSpec(), rng)
	x := mat.New(5, 6)
	out := net.Forward(x, false)
	if len(out.Q) != 2 {
		t.Fatalf("agents = %d", len(out.Q))
	}
	if out.Q[0][0].Rows != 5 || out.Q[0][0].Cols != 4 {
		t.Fatalf("Q[0][0] shape %dx%d", out.Q[0][0].Rows, out.Q[0][0].Cols)
	}
	if out.Q[1][1].Cols != 3 {
		t.Fatalf("Q[1][1] cols = %d", out.Q[1][1].Cols)
	}
}

// TestDuelingIdentifiability: Q − V must have zero mean over actions, by
// construction of the aggregation Q = V + A − mean(A).
func TestDuelingIdentifiability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(smallSpec(), rng)
	x := mat.New(3, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := net.Forward(x, false)
	for k := range out.Q {
		for d := range out.Q[k] {
			q := out.Q[k][d]
			// mean over actions must be identical across dimensions
			// for the same (agent,row): it equals V_k(s).
			for b := 0; b < q.Rows; b++ {
				m0 := mat.Mean(out.Q[k][0].Row(b))
				md := mat.Mean(q.Row(b))
				if math.Abs(m0-md) > 1e-9 {
					t.Fatalf("row %d: mean Q differs across dims: %v vs %v", b, m0, md)
				}
			}
		}
	}
}

// TestPerAgentActionsDiffer: different agents must be able to prefer
// different actions (the per-agent output heads decouple them).
func TestPerAgentActionsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(smallSpec(), rng)
	x := mat.New(1, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := net.Forward(x, false)
	acts := out.GreedyActions()
	if len(acts) != 2 || len(acts[0]) != 2 {
		t.Fatalf("GreedyActions shape %v", acts)
	}
	// With random init the heads are independent; the probability all
	// dims agree across agents by chance is small but non-zero, so try
	// several inputs and require at least one disagreement.
	differ := false
	for trial := 0; trial < 20 && !differ; trial++ {
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		a := net.Forward(x, false).GreedyActions()
		if a[0][0] != a[1][0] || a[0][1] != a[1][1] {
			differ = true
		}
	}
	if !differ {
		t.Fatal("agents never disagree: advantage heads appear shared")
	}
}

// TestNetworkGradientCheck verifies Backward against finite differences
// through the full dueling, branching, multi-agent graph, with the 1/K
// and 1/D rescaling disabled (rescaling is verified separately).
func TestNetworkGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spec := smallSpec()
	net := NewNetwork(spec, rng)
	net.noRescale = true
	x := mat.New(3, spec.StateDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Loss: ½ Σ (Q − T)² with fixed random targets T.
	targets := make([][]*mat.Matrix, spec.Agents)
	for k := range targets {
		targets[k] = make([]*mat.Matrix, len(spec.Dims))
		for d := range targets[k] {
			targets[k][d] = mat.New(3, spec.Dims[d])
			for i := range targets[k][d].Data {
				targets[k][d].Data[i] = rng.NormFloat64()
			}
		}
	}
	lossAt := func() float64 {
		// The loop below pokes parameter values directly; announce the
		// mutation so Forward repacks its persistent weight panels.
		net.noteWeightsChanged()
		out := net.Forward(x, false)
		var l float64
		for k := range out.Q {
			for d := range out.Q[k] {
				for i, q := range out.Q[k][d].Data {
					dlt := q - targets[k][d].Data[i]
					l += 0.5 * dlt * dlt
				}
			}
		}
		return l
	}

	net.ZeroGrad()
	out := net.Forward(x, false)
	gradQ := make([][]*mat.Matrix, spec.Agents)
	for k := range gradQ {
		gradQ[k] = make([]*mat.Matrix, len(spec.Dims))
		for d := range gradQ[k] {
			g := mat.New(3, spec.Dims[d])
			mat.Sub(g, out.Q[k][d], targets[k][d])
			gradQ[k][d] = g
		}
	}
	net.Backward(gradQ)

	const eps = 1e-5
	for _, p := range net.Params() {
		for i := 0; i < len(p.Value.Data); i += 5 {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestGradientRescaling checks the paper's 1/K and 1/D rescaling by
// comparing a rescaled network against an identical unrescaled one. A
// gradient with zero row-sums silences the value path, isolating the
// advantage path: advantage-hidden gradients must shrink by 1/K and the
// trunk gradient by 1/(K·D).
func TestGradientRescaling(t *testing.T) {
	spec := smallSpec()
	build := func() *Network {
		return NewNetwork(spec, rand.New(rand.NewSource(11)))
	}
	scaled, plain := build(), build()
	plain.noRescale = true

	x := mat.New(2, spec.StateDim)
	r := rand.New(rand.NewSource(12))
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	mkGrad := func() [][]*mat.Matrix {
		gq := make([][]*mat.Matrix, spec.Agents)
		for k := range gq {
			gq[k] = make([]*mat.Matrix, len(spec.Dims))
			for d := range gq[k] {
				g := mat.New(2, spec.Dims[d])
				for b := 0; b < 2; b++ {
					row := g.Row(b)
					// zero-sum pattern: +1, −1, 0, 0, ...
					row[0], row[1] = 1, -1
				}
				gq[k][d] = g
			}
		}
		return gq
	}
	scaled.ZeroGrad()
	scaled.Forward(x, false)
	scaled.Backward(mkGrad())
	plain.ZeroGrad()
	plain.Forward(x, false)
	plain.Backward(mkGrad())

	K := float64(spec.Agents)
	D := float64(len(spec.Dims))
	cmp := func(name string, a, b []*matParam, factor float64) {
		for i := range a {
			for j := range a[i].grad {
				want := b[i].grad[j] * factor
				if math.Abs(a[i].grad[j]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s grad[%d][%d] = %v, want %v (factor %v)", name, i, j, a[i].grad[j], want, factor)
				}
			}
		}
	}
	cmp("advHidden", paramsOf(scaled.advHidden[0].Params()), paramsOf(plain.advHidden[0].Params()), 1/K)
	cmp("shared", paramsOf(scaled.shared.Params()), paramsOf(plain.shared.Params()), 1/(K*D))
	// Output heads sit above the rescaling points: unscaled.
	cmp("advOut", paramsOf(scaled.advOut[1][1].Params()), paramsOf(plain.advOut[1][1].Params()), 1)
}

type matParam struct {
	value, grad []float64
}

func paramsOf(ps []*nn.Param) []*matParam {
	out := make([]*matParam, len(ps))
	for i, p := range ps {
		out[i] = &matParam{p.Value.Data, p.Grad.Data}
	}
	return out
}

func TestTargetCopyAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewNetwork(smallSpec(), rng)
	b := NewNetwork(smallSpec(), rng)
	b.CopyValuesFrom(a)
	x := mat.New(1, 6)
	x.Data[0] = 1
	qa := a.Forward(x, false).Q[0][0].Row(0)
	qb := b.Forward(x, false).Q[0][0].Row(0)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("copied network differs")
		}
	}
}

func TestReinitOutputLayersKeepsTrunk(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(smallSpec(), rng)
	trunkBefore := mat.Clone(net.shared.Params()[0].Value.Data)
	headBefore := mat.Clone(net.advOut[0][0].W.Value.Data)
	valueHeadBefore := mat.Clone(net.OutputParams()[0].Value.Data)
	net.ReinitOutputLayers(rng)
	for i, v := range net.shared.Params()[0].Value.Data {
		if v != trunkBefore[i] {
			t.Fatal("trunk modified by transfer re-init")
		}
	}
	changed := false
	for i, v := range net.advOut[0][0].W.Value.Data {
		if v != headBefore[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("advantage head not re-initialised")
	}
	changed = false
	for i, v := range net.OutputParams()[0].Value.Data {
		if v != valueHeadBefore[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("value head not re-initialised")
	}
}

func TestNumParamsMatchesArchitecture(t *testing.T) {
	spec := smallSpec()
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(spec, rng)
	// shared: 6·16+16 + 16·8+8
	shared := 6*16 + 16 + 16*8 + 8
	// values: 2 × (8·8+8 + 8·1+1)
	values := 2 * (8*8 + 8 + 8*1 + 1)
	// advHidden: 2 × (8·8+8)
	advH := 2 * (8*8 + 8)
	// advOut: agents×dims heads: (8·4+4)+(8·3+3) per agent ×2
	advO := 2 * ((8*4 + 4) + (8*3 + 3))
	want := shared + values + advH + advO
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if net.MemoryBytes() != want*8 {
		t.Fatal("MemoryBytes")
	}
}

// TestSharedValueAblation: with SharedValue the mean Q over actions (=
// V(s)) must be identical across agents, and the parameter count drops
// by one value stream.
func TestSharedValueAblation(t *testing.T) {
	spec := smallSpec()
	spec.SharedValue = true
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(spec, rng)
	x := mat.New(2, spec.StateDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := net.Forward(x, false)
	for b := 0; b < 2; b++ {
		v0 := mat.Mean(out.Q[0][0].Row(b))
		v1 := mat.Mean(out.Q[1][0].Row(b))
		if math.Abs(v0-v1) > 1e-9 {
			t.Fatalf("shared V differs across agents: %v vs %v", v0, v1)
		}
	}
	perAgent := NewNetwork(smallSpec(), rand.New(rand.NewSource(21)))
	if net.NumParams() >= perAgent.NumParams() {
		t.Fatal("shared value must shrink the network")
	}
	// Backward must run without panicking and produce gradients.
	net.ZeroGrad()
	net.Forward(x, false)
	gq := make([][]*mat.Matrix, spec.Agents)
	for k := range gq {
		gq[k] = make([]*mat.Matrix, len(spec.Dims))
		for d := range gq[k] {
			g := mat.New(2, spec.Dims[d])
			g.Fill(0.1)
			gq[k][d] = g
		}
	}
	net.Backward(gq)
	if net.valueHid[0].Params()[0].Grad.MaxAbs() == 0 {
		t.Fatal("shared value stream received no gradient")
	}
}
