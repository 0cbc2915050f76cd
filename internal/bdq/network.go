// Package bdq implements the branching dueling Q-network (BDQ) of
// Tavakoli et al. and the multi-agent extension introduced by Twig
// (Sec. III-A): a shared state representation, one state-value stream per
// learning agent ("state agents"), and per-action-dimension advantage
// modules whose deepest (hidden) layer is shared across agents while each
// agent keeps its own linear output head. Gradients are rescaled by 1/K
// (number of agents) before entering the deepest advantage layer and by
// 1/D (number of action dimensions) before entering the shared
// representation, exactly as described in the paper.
package bdq

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/rng"
)

// Spec describes the multi-agent BDQ architecture. Twig-S uses Agents=1;
// Twig-C uses one agent per colocated service. Every agent shares the
// same action dimensions (e.g. Dims = [18 cores, 9 DVFS states]).
type Spec struct {
	// StateDim is the total network input width: the concatenated,
	// feature-scaled PMC vectors of all agents.
	StateDim int
	// Agents is K, the number of learning agents (services).
	Agents int
	// Dims lists the number of discrete actions in each action
	// dimension (branch), shared by every agent.
	Dims []int
	// SharedHidden are the widths of the shared representation layers
	// (the paper uses [512, 256]).
	SharedHidden []int
	// BranchHidden is the width of the single hidden layer in each
	// advantage module and each state-value stream (the paper uses 128).
	BranchHidden int
	// Dropout is the drop probability applied after each fully
	// connected hidden layer (the paper uses 0.5). Zero disables it.
	Dropout float64
	// SharedValue collapses the per-agent state-value streams into one
	// stream shared by every agent — the ablation of Twig's multi-agent
	// contribution (Sec. III-A introduces per-agent "state agents"
	// precisely because simultaneous agents otherwise disturb each
	// other's learning).
	SharedValue bool
}

// Validate reports whether the spec is structurally usable.
func (s Spec) Validate() error {
	switch {
	case s.StateDim <= 0:
		return fmt.Errorf("bdq: StateDim = %d", s.StateDim)
	case s.Agents <= 0:
		return fmt.Errorf("bdq: Agents = %d", s.Agents)
	case len(s.Dims) == 0:
		return fmt.Errorf("bdq: no action dimensions")
	case len(s.SharedHidden) == 0:
		return fmt.Errorf("bdq: no shared hidden layers")
	case s.BranchHidden <= 0:
		return fmt.Errorf("bdq: BranchHidden = %d", s.BranchHidden)
	}
	for i, n := range s.Dims {
		if n <= 0 {
			return fmt.Errorf("bdq: Dims[%d] = %d", i, n)
		}
	}
	return nil
}

// Network is one instance (online or target) of the multi-agent BDQ.
type Network struct {
	spec Spec

	shared    *nn.Sequential // input → shared representation
	valueHid  []*nn.Dense    // K state-value streams: hidden layer …
	valueOut  []*nn.Dense    // … and linear head, hidden → 1
	advHidden []*nn.Dense    // D shared advantage hidden layers
	advOut    [][]*nn.Dense  // [K][D] per-agent linear output heads

	// cached forward activations for Backward
	lastShared *mat.Matrix
	lastAdvHid []*mat.Matrix

	// The live sets of the activations the heads' layers read, made by the
	// epilogue of the product that writes each (nn.Dense.ForwardLive): the
	// shared representation (K value streams and D advantage modules), each
	// advantage hidden layer's output (K heads) and each value stream's
	// hidden output (its head).
	sharedLive   mat.Live
	advHidLive   []mat.Live
	valueHidLive []mat.Live

	// reusable per-batch-size workspaces; see Forward's ownership note.
	fwd map[int]*fwdWS
	bwd map[int]*bwdWS

	params []*nn.Param // cached Params() result; layer set is immutable
	denses []*nn.Dense // cached dense-layer enumeration

	// noRescale disables the 1/K and 1/D gradient rescaling so tests
	// can compare Backward against exact finite differences.
	noRescale bool

	// beforeBackward, when set, sees each dense layer just before Backward
	// runs its products, with the input-gradient sum they add to (nil for
	// none): tests hold every accumulation target to the products'
	// precondition there (mat.MulTransBPacked's accumulation precondition:
	// no −0).
	beforeBackward func(d *nn.Dense, sum *mat.Matrix)
}

// Output holds the per-agent, per-dimension Q-values for a batch:
// Q[k][d] is batch×Dims[d].
type Output struct {
	Q [][]*mat.Matrix
}

// fwdWS holds the Forward outputs for one batch size.
type fwdWS struct {
	out *Output
}

// bwdWS holds the Backward scratch for one batch size.
type bwdWS struct {
	sharedGrad *mat.Matrix // batch×repr gradient entering the trunk
	gv         *mat.Matrix // batch×1 value-stream gradient
	combined   *mat.Matrix // batch×BranchHidden, summed over agents
	rowSums    []float64   // each row's sum of gradQ[k][d], at (k·D+d)·batch
	means      []float64
}

// NewNetwork builds a network with He-initialised weights drawn from r,
// the stream its dropout layers draw their masks from too.
func NewNetwork(spec Spec, r *rng.Rand) *Network {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := &Network{spec: spec}

	// Every dense but the first reads what a ReLU (and, in the trunk, a
	// dropout) left of the layer below, and its input gradient goes back
	// through that stack's mask: GatedInput. The first reads the states,
	// which need no gradient at all.
	var layers []nn.Layer
	in := spec.StateDim
	for i, h := range spec.SharedHidden {
		dense := nn.NewDenseReLU(fmt.Sprintf("shared%d", i), in, h, r.Rand)
		dense.NoInputGrad = i == 0
		dense.GatedInput = i > 0
		layers = append(layers, dense)
		if spec.Dropout > 0 {
			layers = append(layers, nn.NewDropout(spec.Dropout, r))
		}
		in = h
	}
	n.shared = nn.NewSequential(layers...)
	repr := in
	gated := func(d *nn.Dense) *nn.Dense {
		d.GatedInput = true
		return d
	}

	numValues := spec.Agents
	if spec.SharedValue {
		numValues = 1
	}
	for k := 0; k < numValues; k++ {
		n.valueHid = append(n.valueHid, gated(nn.NewDenseReLU(fmt.Sprintf("value%d.h", k), repr, spec.BranchHidden, r.Rand)))
		n.valueOut = append(n.valueOut, gated(nn.NewDense(fmt.Sprintf("value%d.out", k), spec.BranchHidden, 1, r.Rand)))
	}
	for d := range spec.Dims {
		n.advHidden = append(n.advHidden, gated(nn.NewDenseReLU(fmt.Sprintf("adv%d.h", d), repr, spec.BranchHidden, r.Rand)))
	}
	n.advOut = make([][]*nn.Dense, spec.Agents)
	for k := 0; k < spec.Agents; k++ {
		n.advOut[k] = make([]*nn.Dense, len(spec.Dims))
		for d, na := range spec.Dims {
			n.advOut[k][d] = gated(nn.NewDense(fmt.Sprintf("adv%d.out%d", d, k), spec.BranchHidden, na, r.Rand))
		}
	}
	n.lastAdvHid = make([]*mat.Matrix, len(spec.Dims))
	lives := make([]mat.Live, len(spec.Dims)+numValues)
	n.advHidLive, n.valueHidLive = lives[:len(spec.Dims)], lives[len(spec.Dims):]
	return n
}

// Spec returns the architecture description.
func (n *Network) Spec() Spec { return n.spec }

// fwdWorkspace returns the reusable Output for the given batch size,
// building it on first use.
func (n *Network) fwdWorkspace(batch int) *fwdWS {
	if ws := n.fwd[batch]; ws != nil {
		return ws
	}
	if n.fwd == nil {
		n.fwd = make(map[int]*fwdWS, 2)
	}
	ws := &fwdWS{out: &Output{Q: make([][]*mat.Matrix, n.spec.Agents)}}
	for k := range ws.out.Q {
		ws.out.Q[k] = make([]*mat.Matrix, len(n.spec.Dims))
		for d, na := range n.spec.Dims {
			ws.out.Q[k][d] = mat.New(batch, na)
		}
	}
	n.fwd[batch] = ws
	return ws
}

// Forward computes Q-values for a batch of states (rows = samples,
// columns = StateDim). The dueling aggregation subtracts the per-row mean
// advantage so V is identifiable: Q = V + A − mean(A).
//
// The returned Output is a workspace owned by the network, keyed by
// batch size: it is overwritten by the network's next Forward call with
// the same batch size. Callers that need Q-values to survive longer must
// clone them (see Agent.QValues).
func (n *Network) Forward(states *mat.Matrix, train bool) *Output {
	z := n.shared.ForwardLive(states, nil, &n.sharedLive, train)
	n.lastShared = z
	for d := range n.spec.Dims {
		n.lastAdvHid[d] = n.advHidden[d].ForwardLive(z, &n.sharedLive, &n.advHidLive[d], train)
	}
	ws := n.fwdWorkspace(states.Rows)
	out := ws.out
	value := func(k int) *mat.Matrix { // batch×1
		h := n.valueHid[k].ForwardLive(z, &n.sharedLive, &n.valueHidLive[k], train)
		return n.valueOut[k].ForwardLive(h, &n.valueHidLive[k], nil, train)
	}
	// With SharedValue every agent reads the same V(s); forward it once.
	var sharedV *mat.Matrix
	if n.spec.SharedValue {
		sharedV = value(0)
	}
	for k := 0; k < n.spec.Agents; k++ {
		v := sharedV
		if v == nil {
			v = value(k)
		}
		for d := range n.spec.Dims {
			duel(out.Q[k][d], v, n.advOut[k][d].ForwardLive(n.lastAdvHid[d], &n.advHidLive[d], nil, train))
		}
	}
	return out
}

// duel writes the dueling aggregation Q = (V + A) − mean(A) of one head —
// a batch×1 V and a batch×Dims[d] A — in one pass over A's rows, four
// rows a pass: each row's sum a chain of adds in column order from +0
// (mat.Matrix.RowSumsInto's), over the width its mean, then the four
// rows of Q in one loop.
func duel(q, v, a *mat.Matrix) {
	rows, na := a.Rows, a.Cols
	vs, ad, qd := v.Data[:rows], a.Data[:rows*na], q.Data[:rows*na]
	width := float64(na)
	b := 0
	for ; b+4 <= rows; b += 4 {
		a0 := ad[b*na : (b+1)*na]
		a1, a2, a3 := ad[(b+1)*na:][:len(a0)], ad[(b+2)*na:][:len(a0)], ad[(b+3)*na:][:len(a0)]
		q0, q1, q2, q3 := qd[b*na:][:len(a0)], qd[(b+1)*na:][:len(a0)], qd[(b+2)*na:][:len(a0)], qd[(b+3)*na:][:len(a0)]
		var s0, s1, s2, s3 float64
		for j, x := range a0 {
			s0 += x
			s1 += a1[j]
			s2 += a2[j]
			s3 += a3[j]
		}
		m0, m1, m2, m3 := s0/width, s1/width, s2/width, s3/width
		v0, v1, v2, v3 := vs[b], vs[b+1], vs[b+2], vs[b+3]
		for j, x := range a0 {
			q0[j] = v0 + x - m0
			q1[j] = v1 + a1[j] - m1
			q2[j] = v2 + a2[j] - m2
			q3[j] = v3 + a3[j] - m3
		}
	}
	for ; b < rows; b++ {
		arow, qrow := ad[b*na:(b+1)*na], qd[b*na:][:na]
		var s float64
		for _, x := range arow {
			s += x
		}
		mean, vb := s/width, vs[b]
		for j, x := range arow {
			qrow[j] = vb + x - mean
		}
	}
}

// Backward propagates the gradient of the loss with respect to every
// Q output. gradQ must have the same shape as a Forward Output. It
// applies the dueling decomposition, the 1/K rescale before the deepest
// advantage layer, and the 1/D rescale before the shared representation.
func (n *Network) Backward(gradQ [][]*mat.Matrix) {
	if n.lastShared == nil {
		panic("bdq: Backward before Forward")
	}
	batch := n.lastShared.Rows
	ws := n.bwdWorkspace(batch, n.lastShared.Cols)
	sharedGrad := ws.sharedGrad
	sharedGrad.Zero()
	K := float64(n.spec.Agents)
	D := float64(len(n.spec.Dims))
	if n.noRescale {
		K, D = 1, 1
	}

	// Every row's sum of every gradQ[k][d], four rows a pass: the value
	// stream adds them and the advantage heads centre on their means.
	nd := len(n.spec.Dims)
	sums := func(k, d int) []float64 { return ws.rowSums[(k*nd+d)*batch : (k*nd+d+1)*batch] }
	for k, gq := range gradQ {
		for d, g := range gq {
			g.RowSumsInto(sums(k, d))
		}
	}

	// Per-agent value gradient: dQ/dV = 1 for every action of every
	// dimension, so dV[b] = Σ_d Σ_a gradQ[k][d][b][a]. With SharedValue
	// the single stream accumulates every agent's gradient. Each branch
	// adds its input gradient to sharedGrad as its product finishes.
	valueStream := func(v, k0, k1 int) {
		gv := ws.gv
		gv.Zero()
		for k := k0; k < k1; k++ {
			for d := 0; d < nd; d++ {
				for b, s := range sums(k, d) {
					gv.Data[b] += s
				}
			}
		}
		n.backward(n.valueHid[v], n.backward(n.valueOut[v], gv, mat.Pending{}, nil), mat.Pending{}, sharedGrad)
	}
	if n.spec.SharedValue {
		valueStream(0, 0, n.spec.Agents)
	} else {
		for k := range gradQ {
			valueStream(k, k, k+1)
		}
	}

	// Per-dimension advantage gradient. Because Q subtracts the mean
	// advantage, dA[a] = g[a] − mean(g): each head's sweep centres g on
	// its row means. The combined gradient from the K per-agent output
	// heads is rescaled by 1/K before entering the deepest (hidden)
	// advantage layer, by that layer's sweep.
	for d := range n.spec.Dims {
		combined := ws.combined
		combined.Zero()
		for k := 0; k < n.spec.Agents; k++ {
			g := gradQ[k][d]
			for b, s := range sums(k, d) {
				ws.means[b] = s / float64(g.Cols)
			}
			n.backward(n.advOut[k][d], g, mat.Pending{Shift: ws.means}, combined)
		}
		n.backward(n.advHidden[d], combined, mat.Pending{Scale: 1 / K}, sharedGrad)
	}

	if n.beforeBackward != nil {
		// No trunk layer's backward writes another's gradients, so the
		// trunk's targets stand now as they will when its products run.
		for _, l := range n.shared.Layers {
			if d, ok := l.(*nn.Dense); ok {
				n.beforeBackward(d, nil)
			}
		}
	}
	n.shared.BackwardScaled(sharedGrad, 1/D)
}

// backward runs d's backward pass on what p makes of g, adding its input
// gradient to sum (nil: returning it instead).
func (n *Network) backward(d *nn.Dense, g *mat.Matrix, p mat.Pending, sum *mat.Matrix) *mat.Matrix {
	if n.beforeBackward != nil {
		n.beforeBackward(d, sum)
	}
	return d.BackwardPending(g, p, sum)
}

// bwdWorkspace returns the reusable Backward scratch for the given batch
// size, building it on first use.
func (n *Network) bwdWorkspace(batch, repr int) *bwdWS {
	if ws := n.bwd[batch]; ws != nil {
		return ws
	}
	if n.bwd == nil {
		n.bwd = make(map[int]*bwdWS, 2)
	}
	sums := make([]float64, (1+n.spec.Agents*len(n.spec.Dims))*batch)
	ws := &bwdWS{
		sharedGrad: mat.New(batch, repr),
		gv:         mat.New(batch, 1),
		combined:   mat.New(batch, n.spec.BranchHidden),
		means:      sums[:batch],
		rowSums:    sums[batch:],
	}
	n.bwd[batch] = ws
	return ws
}

// Params returns all learnable parameters in a deterministic order
// (shared trunk, value streams, advantage hiddens, advantage heads).
// The slice is cached — the network's layer set never changes — so hot
// paths (checkpoints, target syncs) don't rebuild it. Callers must
// not append to or reorder the returned slice.
func (n *Network) Params() []*nn.Param {
	if n.params != nil {
		return n.params
	}
	ps := n.shared.Params()
	for k, h := range n.valueHid {
		ps = append(append(ps, h.Params()...), n.valueOut[k].Params()...)
	}
	for _, a := range n.advHidden {
		ps = append(ps, a.Params()...)
	}
	for _, row := range n.advOut {
		for _, o := range row {
			ps = append(ps, o.Params()...)
		}
	}
	n.params = ps
	return ps
}

// Denses enumerates every dense layer in a deterministic order (trunk,
// value streams, advantage hiddens, advantage heads). Cached; callers
// must not mutate the slice.
func (n *Network) Denses() []*nn.Dense {
	if n.denses != nil {
		return n.denses
	}
	var ds []*nn.Dense
	for _, l := range n.shared.Layers {
		if d, ok := l.(*nn.Dense); ok {
			ds = append(ds, d)
		}
	}
	for k, h := range n.valueHid {
		ds = append(ds, h, n.valueOut[k])
	}
	ds = append(ds, n.advHidden...)
	for _, row := range n.advOut {
		ds = append(ds, row...)
	}
	n.denses = ds
	return ds
}

// LayerLive is one dense layer's share of live inputs in the last
// train-mode minibatch.
type LayerLive struct {
	Layer string // "shared1", "adv0.h", "value1.out", …
	Live  int    // inputs not ±0 in every row of the minibatch
	Width int    // the layer's input width
}

// LiveFractions reports, for every dense layer that has seen a
// train-mode minibatch, how many of its inputs were live in the last
// one (nn.Dense.LiveInputs), in Denses() order. A dead input is a unit
// of the layer below that fired for no sample of the batch: a learning-
// health signal (a third to three quarters of the hidden units at ε ≈ 0.9
// on the paper network) that costs nothing to keep, because the forward
// products count it anyway to skip those columns.
func (n *Network) LiveFractions() []LayerLive {
	var out []LayerLive
	for _, d := range n.Denses() {
		if live, ok := d.LiveInputs(); ok {
			out = append(out, LayerLive{Layer: strings.TrimSuffix(d.W.Name, ".W"), Live: live, Width: d.In})
		}
	}
	return out
}

// SetOptimizer makes opt the optimiser of every dense layer: from then on
// each Backward is one optimiser step of the network
// (nn.Dense.SetOptimizer).
func (n *Network) SetOptimizer(opt nn.Optimizer) {
	for _, d := range n.Denses() {
		d.SetOptimizer(opt)
	}
}

// ZeroGrad clears all parameter gradients (nn.Param.Grad: training holds
// none, and only the benchmark's layer probes call it).
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// CopyValuesFrom copies all parameter values from src (target-network
// synchronisation): one copy of each tensor's panels and Finite bit.
// Architectures must match.
func (n *Network) CopyValuesFrom(src *Network) {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic("bdq: CopyValuesFrom architecture mismatch")
	}
	for i := range dst {
		dst[i].CopyValueFrom(from[i])
	}
}

// NumParams returns the number of scalar learnable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// MemoryBytes returns an estimate of the parameter memory footprint
// (float64 weights), used by the memory-complexity experiment.
func (n *Network) MemoryBytes() int { return n.NumParams() * 8 }

// OutputParams returns the parameters of the final (output) layers: the
// per-agent value heads and per-agent advantage heads. Transfer learning
// re-initialises exactly these.
func (n *Network) OutputParams() []*nn.Param {
	var ps []*nn.Param
	for _, o := range n.valueOut {
		ps = append(ps, o.Params()...)
	}
	for _, row := range n.advOut {
		for _, o := range row {
			ps = append(ps, o.Params()...)
		}
	}
	return ps
}

// ReinitOutputLayers randomises the final layers (transfer learning,
// Sec. IV): the trained shared representation and hidden layers are kept
// while the specialised output heads are re-drawn.
func (n *Network) ReinitOutputLayers(rng *rand.Rand) {
	for _, o := range n.valueOut {
		o.InitHe(rng)
	}
	for _, row := range n.advOut {
		for _, o := range row {
			o.InitHe(rng)
		}
	}
	nn.ResetMoments(n.OutputParams())
}
