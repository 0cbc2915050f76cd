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

	// The live sets of the activations more than one layer reads, scanned
	// once per Forward by the first layer that needs them: the shared
	// representation (K value streams and D advantage modules) and each
	// advantage hidden layer's output (K heads).
	sharedLive mat.Live
	advHidLive []mat.Live

	// reusable per-batch-size workspaces; see Forward's ownership note.
	fwd map[int]*fwdWS
	bwd map[int]*bwdWS

	params []*nn.Param // cached Params() result; layer set is immutable
	denses []*nn.Dense // cached dense-layer enumeration for the pool

	// weightEpoch counts the parameter mutations that leave the packs
	// behind (target syncs, loads, transfers; not optimiser steps, which
	// write the panels themselves). The persistent packed panels are
	// keyed by it, so a stale pack can never be used after the weights
	// change through any of those paths.
	weightEpoch int
	// packEpoch is the weight epoch the dense layers' persistent packs
	// were last rebuilt at (−1 before the first pack).
	packEpoch int

	// noRescale disables the 1/K and 1/D gradient rescaling so tests
	// can compare Backward against exact finite differences.
	noRescale bool
}

// Output holds the per-agent, per-dimension Q-values for a batch:
// Q[k][d] is batch×Dims[d].
type Output struct {
	Q [][]*mat.Matrix
}

// fwdWS holds the Forward outputs for one batch size.
type fwdWS struct {
	out   *Output
	means []float64 // per-row advantage means
}

// bwdWS holds the Backward scratch for one batch size.
type bwdWS struct {
	sharedGrad *mat.Matrix   // batch×repr gradient entering the trunk
	gv         *mat.Matrix   // batch×1 value-stream gradient
	combined   *mat.Matrix   // batch×BranchHidden, summed over agents
	centered   []*mat.Matrix // per dimension: batch×Dims[d]
	means      []float64
}

// NewNetwork builds a network with He-initialised weights drawn from rng.
func NewNetwork(spec Spec, rng *rand.Rand) *Network {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := &Network{spec: spec, packEpoch: -1}

	// Every dense but the first reads what a ReLU (and, in the trunk, a
	// dropout) left of the layer below, and its input gradient goes back
	// through that stack's mask: GatedInput. The first reads the states,
	// which need no gradient at all.
	var layers []nn.Layer
	in := spec.StateDim
	for i, h := range spec.SharedHidden {
		dense := nn.NewDenseReLU(fmt.Sprintf("shared%d", i), in, h, rng)
		dense.NoInputGrad = i == 0
		dense.GatedInput = i > 0
		layers = append(layers, dense)
		if spec.Dropout > 0 {
			layers = append(layers, nn.NewDropout(spec.Dropout, rng))
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
		n.valueHid = append(n.valueHid, gated(nn.NewDenseReLU(fmt.Sprintf("value%d.h", k), repr, spec.BranchHidden, rng)))
		n.valueOut = append(n.valueOut, gated(nn.NewDense(fmt.Sprintf("value%d.out", k), spec.BranchHidden, 1, rng)))
	}
	for d := range spec.Dims {
		n.advHidden = append(n.advHidden, gated(nn.NewDenseReLU(fmt.Sprintf("adv%d.h", d), repr, spec.BranchHidden, rng)))
	}
	n.advOut = make([][]*nn.Dense, spec.Agents)
	for k := 0; k < spec.Agents; k++ {
		n.advOut[k] = make([]*nn.Dense, len(spec.Dims))
		for d, na := range spec.Dims {
			n.advOut[k][d] = gated(nn.NewDense(fmt.Sprintf("adv%d.out%d", d, k), spec.BranchHidden, na, rng))
		}
	}
	n.lastAdvHid = make([]*mat.Matrix, len(spec.Dims))
	n.advHidLive = make([]mat.Live, len(spec.Dims))
	return n
}

// Spec returns the architecture description.
func (n *Network) Spec() Spec { return n.spec }

// fwdWorkspace returns the reusable Output (and row-mean scratch) for
// the given batch size, building it on first use.
func (n *Network) fwdWorkspace(batch int) *fwdWS {
	if ws := n.fwd[batch]; ws != nil {
		return ws
	}
	if n.fwd == nil {
		n.fwd = make(map[int]*fwdWS, 2)
	}
	ws := &fwdWS{
		out:   &Output{Q: make([][]*mat.Matrix, n.spec.Agents)},
		means: make([]float64, batch),
	}
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
	n.ensurePacks()
	z := n.shared.Forward(states, train)
	n.lastShared = z
	n.sharedLive.Reset()
	for d := range n.spec.Dims {
		n.lastAdvHid[d] = n.advHidden[d].ForwardLive(z, &n.sharedLive, train)
		n.advHidLive[d].Reset()
	}
	ws := n.fwdWorkspace(states.Rows)
	out := ws.out
	value := func(k int) *mat.Matrix { // batch×1
		return n.valueOut[k].Forward(n.valueHid[k].ForwardLive(z, &n.sharedLive, train), train)
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
			a := n.advOut[k][d].ForwardLive(n.lastAdvHid[d], &n.advHidLive[d], train)
			q := out.Q[k][d]
			a.RowMeansInto(ws.means)
			for b := 0; b < a.Rows; b++ {
				vb := v.At(b, 0)
				arow := a.Row(b)
				qrow := q.Row(b)
				for j := range qrow {
					qrow[j] = vb + arow[j] - ws.means[b]
				}
			}
		}
	}
	return out
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

	// Per-agent value gradient: dQ/dV = 1 for every action of every
	// dimension, so dV[b] = Σ_d Σ_a gradQ[k][d][b][a]. With SharedValue
	// the single stream accumulates every agent's gradient. Each branch
	// adds its input gradient to sharedGrad as its product finishes.
	valueStream := func(v int, agents [][]*mat.Matrix) {
		gv := ws.gv
		gv.Zero()
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

	// Per-dimension advantage gradient. Because Q subtracts the mean
	// advantage, dA[a] = g[a] − mean(g). The combined gradient from the
	// K per-agent output heads is rescaled by 1/K before entering the
	// deepest (hidden) advantage layer.
	for d := range n.spec.Dims {
		combined := ws.combined
		combined.Zero()
		for k := 0; k < n.spec.Agents; k++ {
			g := gradQ[k][d]
			centered := ws.centered[d]
			g.RowMeansInto(ws.means)
			for b := 0; b < g.Rows; b++ {
				grow := g.Row(b)
				crow := centered.Row(b)
				for j := range crow {
					crow[j] = grow[j] - ws.means[b]
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

// bwdWorkspace returns the reusable Backward scratch for the given batch
// size, building it on first use.
func (n *Network) bwdWorkspace(batch, repr int) *bwdWS {
	if ws := n.bwd[batch]; ws != nil {
		return ws
	}
	if n.bwd == nil {
		n.bwd = make(map[int]*bwdWS, 2)
	}
	ws := &bwdWS{
		sharedGrad: mat.New(batch, repr),
		gv:         mat.New(batch, 1),
		combined:   mat.New(batch, n.spec.BranchHidden),
		centered:   make([]*mat.Matrix, len(n.spec.Dims)),
		means:      make([]float64, batch),
	}
	for d, na := range n.spec.Dims {
		ws.centered[d] = mat.New(batch, na)
	}
	n.bwd[batch] = ws
	return ws
}

// Params returns all learnable parameters in a deterministic order
// (shared trunk, value streams, advantage hiddens, advantage heads).
// The slice is cached — the network's layer set never changes — so hot
// paths (ZeroGrad, the optimiser step) don't rebuild it. Callers must
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

// noteWeightsChanged invalidates any packed-panel caches keyed on this
// network's weights. Every code path that mutates parameter values
// other than an optimiser step must call it (CopyValuesFrom and
// ReinitOutputLayers do so themselves; the agent bumps after
// checkpoint/weight loads). An optimiser step leaves every attached
// pack current and calls nothing.
func (n *Network) noteWeightsChanged() { n.weightEpoch++ }

// ensurePacks refreshes every dense layer's persistent packed weight
// panels to the current weight epoch, so weights are packed exactly
// once per mutation instead of once per product — and not at all after
// an optimiser step, the one frequent writer. Forward calls it; the
// pool's grouped products (netPack) share the same panels. Packed
// products are bit-identical to the per-call-packing path
// (mat.MulPackedBiasAct's contract), so this changes no result.
func (n *Network) ensurePacks() {
	if n.packEpoch == n.weightEpoch {
		return
	}
	for _, d := range n.Denses() {
		d.RefreshPack()
	}
	n.packEpoch = n.weightEpoch
}

// Denses enumerates every dense layer in a deterministic order (trunk,
// value streams, advantage hiddens, advantage heads) — the traversal
// the pooled forward and its pack caches share. Cached; callers must
// not mutate the slice.
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

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// CopyValuesFrom copies all parameter values from src (target-network
// synchronisation). Architectures must match.
func (n *Network) CopyValuesFrom(src *Network) {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic("bdq: CopyValuesFrom architecture mismatch")
	}
	for i := range dst {
		dst[i].CopyValueFrom(from[i])
	}
	n.noteWeightsChanged()
}

// NumParams returns the number of scalar learnable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
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
	n.noteWeightsChanged()
}

// GreedyActions returns, for each agent and dimension, the argmax action
// of the (single-row) forward output.
func (o *Output) GreedyActions() [][]int {
	acts := make([][]int, len(o.Q))
	for k := range o.Q {
		acts[k] = make([]int, len(o.Q[k]))
		for d := range o.Q[k] {
			acts[k][d] = mat.Argmax(o.Q[k][d].Row(0))
		}
	}
	return acts
}
