package bdq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/rng"
)

// unpack returns the operand pb holds as a new row-major matrix.
func unpack(pb *mat.PackedB) *mat.Matrix {
	m := mat.New(pb.K, pb.N)
	pb.UnpackInto(m)
	return m
}

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
	r := rng.New(1)
	net := NewNetwork(smallSpec(), r)
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
	r := rng.New(2)
	net := NewNetwork(smallSpec(), r)
	x := mat.New(3, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
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
	r := rng.New(3)
	net := NewNetwork(smallSpec(), r)
	x := mat.New(1, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	greedy := func(out *Output) [][]int {
		acts := make([][]int, len(out.Q))
		for k := range out.Q {
			for d := range out.Q[k] {
				acts[k] = append(acts[k], mat.Argmax(out.Q[k][d].Row(0)))
			}
		}
		return acts
	}
	acts := greedy(net.Forward(x, false))
	if len(acts) != 2 || len(acts[0]) != 2 {
		t.Fatalf("greedy actions shape %v", acts)
	}
	// With random init the heads are independent; the probability all
	// dims agree across agents by chance is small but non-zero, so try
	// several inputs and require at least one disagreement.
	differ := false
	for trial := 0; trial < 20 && !differ; trial++ {
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		a := greedy(net.Forward(x, false))
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
	r := rng.New(4)
	spec := smallSpec()
	net := NewNetwork(spec, r)
	net.noRescale = true
	x := mat.New(3, spec.StateDim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	// Loss: ½ Σ (Q − T)² with fixed random targets T.
	targets := make([][]*mat.Matrix, spec.Agents)
	for k := range targets {
		targets[k] = make([]*mat.Matrix, len(spec.Dims))
		for d := range targets[k] {
			targets[k][d] = mat.New(3, spec.Dims[d])
			for i := range targets[k][d].Data {
				targets[k][d].Data[i] = r.NormFloat64()
			}
		}
	}
	lossAt := func() float64 {
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

	net.SetOptimizer(accumulate{})
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
		vals := unpack(p.Panels)
		set := func(i int, v float64) { vals.Data[i] = v; p.Panels.RepackFrom(vals) }
		for i := 0; i < p.Size(); i += 5 {
			orig := vals.Data[i]
			set(i, orig+eps)
			lp := lossAt()
			set(i, orig-eps)
			lm := lossAt()
			set(i, orig)
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
		return NewNetwork(spec, rng.New(11))
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
	scaled.SetOptimizer(accumulate{})
	plain.SetOptimizer(accumulate{})
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
		out[i] = &matParam{unpack(p.Panels).Data, p.Grad.Data}
	}
	return out
}

func TestTargetCopyAndDeterminism(t *testing.T) {
	r := rng.New(5)
	a := NewNetwork(smallSpec(), r)
	b := NewNetwork(smallSpec(), r)
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
	r := rng.New(6)
	net := NewNetwork(smallSpec(), r)
	trunkBefore := unpack(net.shared.Params()[0].Panels).Data
	headBefore := unpack(net.advOut[0][0].W.Panels).Data
	valueHeadBefore := unpack(net.OutputParams()[0].Panels).Data
	net.ReinitOutputLayers(r.Rand)
	for i, v := range unpack(net.shared.Params()[0].Panels).Data {
		if v != trunkBefore[i] {
			t.Fatal("trunk modified by transfer re-init")
		}
	}
	changed := false
	for i, v := range unpack(net.advOut[0][0].W.Panels).Data {
		if v != headBefore[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("advantage head not re-initialised")
	}
	changed = false
	for i, v := range unpack(net.OutputParams()[0].Panels).Data {
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
	r := rng.New(7)
	net := NewNetwork(spec, r)
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
	r := rng.New(21)
	net := NewNetwork(spec, r)
	x := mat.New(2, spec.StateDim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	out := net.Forward(x, false)
	for b := 0; b < 2; b++ {
		v0 := mat.Mean(out.Q[0][0].Row(b))
		v1 := mat.Mean(out.Q[1][0].Row(b))
		if math.Abs(v0-v1) > 1e-9 {
			t.Fatalf("shared V differs across agents: %v vs %v", v0, v1)
		}
	}
	perAgent := NewNetwork(smallSpec(), rng.New(21))
	if net.NumParams() >= perAgent.NumParams() {
		t.Fatal("shared value must shrink the network")
	}
	// Backward must run without panicking and produce gradients.
	net.SetOptimizer(accumulate{})
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
	if !slices.ContainsFunc(net.valueHid[0].Params()[0].Grad.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("shared value stream received no gradient")
	}
}

// twoPassDuel is the dueling aggregation as two passes: the row means
// (mat.Matrix.RowSumsInto, each sum over the width), then
// Q = (V + A) − mean row by row.
func twoPassDuel(q, v, a *mat.Matrix) {
	means := make([]float64, a.Rows)
	a.RowSumsInto(means)
	for b := range means {
		means[b] /= float64(a.Cols)
	}
	for b := 0; b < a.Rows; b++ {
		vb, arow, qrow := v.At(b, 0), a.Row(b), q.Row(b)
		for j := range qrow {
			qrow[j] = vb + arow[j] - means[b]
		}
	}
}

// TestOnePassDuelMatchesTwoPass holds Forward's one-pass dueling head to
// the two-pass loop bit for bit: on every head of networks with K ∈
// {1, 2, 3} agents, D ∈ {1, 2} dimensions and the shared value stream, at
// batch sizes that leave one to three rows past the last pass of four,
// the heads' V and A recomputed from the activations Forward cached; and
// on planted advantages and values — NaN, ±Inf, −0, huge and tiny — that
// no network produces.
func TestOnePassDuelMatchesTwoPass(t *testing.T) {
	r := rng.New(31)
	require := func(tag string, got, want *mat.Matrix) {
		t.Helper()
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: element %d is %v, the two-pass loop's %v", tag, i, got.Data[i], w)
			}
		}
	}
	for _, agents := range []int{1, 2, 3} {
		for _, dims := range [][]int{{5}, {18, 9}} {
			for _, sharedValue := range []bool{false, true} {
				spec := Spec{StateDim: 7, Agents: agents, Dims: dims, SharedHidden: []int{16, 12}, BranchHidden: 8, SharedValue: sharedValue}
				net := NewNetwork(spec, rng.New(int64(agents)))
				for _, batch := range []int{1, 4, 6, 11} {
					x := mat.New(batch, spec.StateDim)
					for i := range x.Data {
						x.Data[i] = 3 * r.NormFloat64()
					}
					out := net.Forward(x, true)
					for k := range out.Q {
						vs := k
						if sharedValue {
							vs = 0
						}
						v := net.valueOut[vs].Forward(net.valueHid[vs].Forward(net.lastShared, false), false).Clone()
						for d := range out.Q[k] {
							a := net.advOut[k][d].Forward(net.lastAdvHid[d], false)
							want := mat.New(batch, dims[d])
							twoPassDuel(want, v, a)
							require(fmt.Sprintf("K=%d dims=%v shared=%t batch %d: Q[%d][%d]", agents, dims, sharedValue, batch, k, d), out.Q[k][d], want)
						}
					}
				}
			}
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e300, 5e-324}
	for _, rows := range []int{1, 2, 3, 4, 5, 9} {
		for _, width := range []int{1, 2, 9, 18} {
			v, a := mat.New(rows, 1), mat.New(rows, width)
			for _, m := range []*mat.Matrix{v, a} {
				for i := range m.Data {
					m.Data[i] = r.NormFloat64()
					if r.Intn(4) == 0 {
						m.Data[i] = specials[r.Intn(len(specials))]
					}
				}
			}
			got, want := mat.New(rows, width), mat.New(rows, width)
			duel(got, v, a)
			twoPassDuel(want, v, a)
			require(fmt.Sprintf("planted %dx%d", rows, width), got, want)
		}
	}
}

// accumulate is the optimiser of the tests that read gradients: it adds
// each gradient a layer's backward pass hands over to the parameter's
// Grad — what the backward pass did itself before it stepped the
// optimiser — and passes it on to next, when there is one. Grad starts at
// +0 (Network.ZeroGrad).
type accumulate struct{ next nn.Optimizer }

func (a accumulate) StepParam(p *nn.Param, g []float64) {
	mat.Axpy(1, g, p.Grad.Data)
	if a.next != nil {
		a.next.StepParam(p, g)
	}
}
