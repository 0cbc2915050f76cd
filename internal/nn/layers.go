package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/twig-sched/twig/internal/mat"
)

// Layer is one differentiable stage of a network. Forward consumes a
// batch (rows = samples) and Backward consumes the gradient of the loss
// with respect to the layer output, hands the parameter gradients to the
// layer's optimiser and returns the gradient with respect to the layer
// input.
//
// Ownership contract: the matrices Forward and Backward return are
// reusable workspaces owned by the layer, keyed by batch size. They stay
// valid until the layer's next Forward/Backward call with the same batch
// size; callers that need to retain results across calls must Clone
// them. This is what makes a steady-state training step allocation-free.
type Layer interface {
	Forward(x *mat.Matrix, train bool) *mat.Matrix
	Backward(gradOut *mat.Matrix) *mat.Matrix
	Params() []*Param
}

// Dense is a fully connected layer: y = x·W + b. With FuseReLU set it is
// a Dense+ReLU pair collapsed into one layer: the activation runs in the
// GEMM epilogue on Forward, and Backward folds the activation-gradient
// mask and the bias column sums into a single sweep before the gradient
// GEMMs. Both directions are bit-identical to the unfused
// Dense-then-ReLU stack (the ReLU mask "post-activation output > 0" is
// equivalent to "pre-activation input > 0").
type Dense struct {
	In, Out  int
	W        *Param // In×Out
	B        *Param // 1×Out
	FuseReLU bool

	// NoInputGrad marks a layer whose input is data, not another layer's
	// output: Backward steps W and B and returns nil instead of g·Wᵀ,
	// which nobody would read. Owners set it on a network's first
	// layer (bdq.NewNetwork does for the trunk).
	NoInputGrad bool

	// GatedInput marks a layer whose input comes out of a ReLU (and
	// possibly dropout) stack: the backward of that stack zeroes the
	// gradient wherever the input it produced is ±0, so the gradient with
	// respect to an input unit that is ±0 in every row of the minibatch
	// reaches nothing, and Backward stores +0 there instead of computing
	// it. It is a fact about the network's structure that only its owner
	// knows, declared where NoInputGrad is (bdq.NewNetwork: every dense
	// but the first) and never inferred from the data: a feature that
	// happens to be zero across a minibatch still has a gradient.
	GatedInput bool

	// opt takes dW and db as Backward computes them (SetOptimizer).
	opt Optimizer

	lastX   *mat.Matrix // cached input for Backward
	lastOut *mat.Matrix // cached output (mask source when FuseReLU)

	// xLive is the live set of lastX, the caller's (ForwardLive) or the
	// layer's own; gLive the masked gradient's, scanned once for the two
	// products of Backward.
	xLive        *mat.Live
	xScan, gLive mat.Live

	// liveIn is how many of the In input columns the last train-mode
	// minibatch left live (see LiveInputs); −1 until there has been one.
	liveIn int

	out     workspace   // y, batch×Out
	gradIn  workspace   // gradient wrt input, batch×In
	gm      *mat.Matrix // the swept gradient, batch×Out, where the sweep changes it
	colSums []float64   // db
	gp      mat.PackedB // the swept gradient's panels, over the scratch one Backward borrows
	dw      mat.Matrix  // dW, In×Out, over the scratch one Backward borrows
	ownDW   []float64   // dW's own storage under NoInputGrad (SetOptimizer)
}

// NewDense creates a Dense layer with He-initialised weights (suitable for
// the ReLU activations used throughout Twig) and zero biases.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		W:      NewParam(name+".W", in, out),
		B:      NewParam(name+".B", 1, out),
		liveIn: -1,
	}
	d.InitHe(rng)
	return d
}

// NewDenseReLU creates a fused Dense+ReLU layer: one Layer that computes
// relu(x·W + b) without materialising the pre-activation, replacing a
// NewDense followed by a ReLU bit-for-bit.
func NewDenseReLU(name string, in, out int, rng *rand.Rand) *Dense {
	d := NewDense(name, in, out, rng)
	d.FuseReLU = true
	return d
}

// InitHe re-initialises the weights with He (Kaiming) normal init and
// zeroes the biases. Used both at construction and by transfer learning
// when the final layer is re-randomised. The draws fill W row-major, run
// by run through its panels.
func (d *Dense) InitHe(rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(d.In))
	w := d.W.Panels
	for i, n := 0, w.NumRuns(); i < n; i++ {
		run := w.Run(i)
		for j := range run {
			run[j] = rng.NormFloat64() * std
		}
	}
	w.CheckFinite()
	clear(d.B.Panels.Data)
	d.B.Panels.Finite = true
}

// bias is B's values in order: a one-row tensor's panels.
func (d *Dense) bias() []float64 { return d.B.Panels.Data[:d.Out] }

// Forward computes y = x·W + b (relu'd when FuseReLU) for a batch x
// (rows = samples). Bias and activation are applied in the GEMM epilogue.
func (d *Dense) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	d.xScan.Reset()
	return d.ForwardLive(x, &d.xScan, train)
}

// ForwardLive is Forward for a caller that holds x's live set (mat.Live):
// an activation feeding several layers is scanned by the first and read
// by the rest, and again by each one's Backward. xl must stay x's until
// then.
func (d *Dense) ForwardLive(x *mat.Matrix, xl *mat.Live, train bool) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %s expects %d inputs, got %d", d.W.Name, d.In, x.Cols))
	}
	d.lastX, d.xLive = x, xl
	y := d.out.get(x.Rows, d.Out)
	act := mat.ActIdentity
	if d.FuseReLU {
		act = mat.ActReLU
	}
	live := mat.MulPackedBiasAct(y, x, xl, d.W.Panels, d.bias(), act)
	if train {
		d.liveIn = live
	}
	d.lastOut = y
	return y
}

// LiveInputs reports how many of the layer's In inputs were live in the
// last train-mode minibatch: not ±0 in every row, i.e. fed by a unit
// that fired for at least one sample (and survived dropout). It is what
// the forward product's column scan counted, kept at the cost of one
// store. ok is false before the first train-mode Forward; the count is
// In wherever the product makes no scan (fewer than four rows).
func (d *Dense) LiveInputs() (live int, ok bool) { return d.liveIn, d.liveIn >= 0 }

// SetOptimizer makes opt the layer's optimiser: from then on every
// Backward hands dW and db to it as it computes them, one optimiser step
// of W and B. The owner of a network that trains sets it on every dense
// (Sequential.SetOptimizer, bdq.Network.SetOptimizer); a network that only
// runs forward (a target network) needs none. dW borrows the pool buffer
// that g·Wᵀ gives back; a layer with NoInputGrad computes no g·Wᵀ, so it
// gets storage of its own here, before training (NoInputGrad set first).
func (d *Dense) SetOptimizer(opt Optimizer) {
	d.opt = opt
	if d.NoInputGrad && d.ownDW == nil {
		d.ownDW = make([]float64, d.In*d.Out)
	}
}

// Backward computes g·Wᵀ (nil under NoInputGrad), dW = xᵀ·g and
// db = Σ_rows g, and hands dW and db to the layer's optimiser, which
// steps W and B in place (SetOptimizer).
// When FuseReLU is set, g is first masked by the activation gradient.
// One sweep over g (mat.SweepGrad) applies the mask and makes everything
// else the products read of g: the bias column sums, g's live set and
// the panels dW multiplies by.
func (d *Dense) Backward(gradOut *mat.Matrix) *mat.Matrix {
	return d.BackwardPending(gradOut, mat.Pending{}, nil)
}

// BackwardAcc is Backward with g·Wᵀ added to sum instead of returned:
// sum[ij] + (g·Wᵀ)[ij], one rounding, which is bitwise the
// `sum += Backward(gradOut)` it replaces — for a layer whose input
// gradient the owner totals over several branches. sum holds no −0
// (mat.MulTransBPacked's accumulation precondition): under GatedInput the
// columns the gate leaves out keep what sum holds there.
func (d *Dense) BackwardAcc(gradOut, sum *mat.Matrix) {
	d.BackwardPending(gradOut, mat.Pending{}, sum)
}

// BackwardPending is Backward (sum nil) or BackwardAcc (sum non-nil) of
// the gradient p makes of gradOut, which stays as it is: the layer's
// sweep over gradOut applies p's shift and scale on its way, bitwise the
// passes over gradOut they replace. It returns the input gradient when
// sum is nil.
func (d *Dense) BackwardPending(gradOut *mat.Matrix, p mat.Pending, sum *mat.Matrix) *mat.Matrix {
	gradIn, accumulate := sum, sum != nil
	if gradIn == nil && !d.NoInputGrad {
		gradIn = d.gradIn.get(gradOut.Rows, d.In)
	}
	d.backward(gradOut, gradIn, accumulate, p)
	if accumulate {
		return nil
	}
	return gradIn
}

func (d *Dense) backward(gradOut, gradIn *mat.Matrix, accumulate bool, p mat.Pending) {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.opt == nil {
		panic(fmt.Sprintf("nn: Dense %s Backward with no optimiser", d.W.Name))
	}
	if d.colSums == nil {
		d.colSums = make([]float64, d.Out)
	}
	// The sweep: mask by "output > 0" (⟺ pre-activation > 0) under
	// FuseReLU, after p's shift and scale, into gm; g is gradOut itself
	// where nothing applies. Its panels borrow pool scratch, which dW
	// reads and gives back.
	rows := gradOut.Rows
	g, mask := gradOut, (*mat.Matrix)(nil)
	if d.FuseReLU {
		mask = d.lastOut
	}
	var gm *mat.Matrix
	if mask != nil || p.Shift != nil || p.Scale != 0 {
		// Only training runs backward, at one batch size: one buffer.
		if d.gm == nil || d.gm.Rows != rows {
			mat.PutScratch(d.gm)
			d.gm = mat.GetScratch(rows, d.Out)
		}
		gm, g = d.gm, d.gm
	}
	gs := mat.GetScratch(1, (d.Out+mat.PanelWidth-1)/mat.PanelWidth*mat.PanelWidth*rows)
	d.gp = mat.PackedB{K: rows, N: d.Out, Data: gs.Data}
	mat.SweepGrad(gm, gradOut, p, mask, d.colSums, &d.gLive, &d.gp)
	// The live × live block: g·Wᵀ's depth from g's live set and, under
	// GatedInput, its columns from x's; dW's rows from x's and its columns
	// from g's. g·Wᵀ goes first because it reads W, which the step below
	// rewrites. W's panels carry their Finite bit, which spares it a scan
	// of W for Inf and NaN.
	if gradIn != nil {
		var gate *mat.Live
		if d.GatedInput {
			gate = d.xLive
			gate.Scan(d.lastX) // a forward of fewer than four rows made none
		}
		mat.MulTransBPacked(gradIn, g, &d.gLive, d.W.Panels, gate, accumulate)
	}
	// dW is stored into the pool buffer that g·Wᵀ's transposed panels
	// just gave back — ⌈In/8⌉·8·Out values either way — and leaves with
	// it, so no parameter-sized gradient outlives the step; under
	// NoInputGrad into the layer's own storage instead.
	var s *mat.Matrix
	d.dw = mat.Matrix{Rows: d.In, Cols: d.Out, Data: d.ownDW}
	if d.dw.Data == nil {
		s = mat.GetScratch(1, (d.In+mat.PanelWidth-1)/mat.PanelWidth*mat.PanelWidth*d.Out)
		d.dw.Data = s.Data[:d.In*d.Out]
	}
	mat.MulTransALive(&d.dw, d.lastX, d.xLive, g, &d.gLive, &d.gp)
	d.opt.StepParam(d.W, d.dw.Data)
	d.opt.StepParam(d.B, d.colSums)
	d.dw.Data, d.gp.Data = nil, nil
	if s != nil {
		mat.PutScratch(s)
	}
	mat.PutScratch(gs)
}

// Params returns the layer's weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	lastX *mat.Matrix

	out  workspace
	grad workspace
}

// Forward computes max(0, x).
func (r *ReLU) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	r.lastX = x
	y := r.out.get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if r.lastX == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	g := r.grad.get(gradOut.Rows, gradOut.Cols)
	for i, v := range r.lastX.Data {
		if v > 0 {
			g.Data[i] = gradOut.Data[i]
		} else {
			g.Data[i] = 0
		}
	}
	return g
}

// Params returns nil: ReLU has no learnable parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout implements inverted dropout: during training each activation is
// zeroed with probability Rate and the survivors are scaled by 1/(1−Rate)
// so that evaluation requires no rescaling. The paper uses Rate = 0.5
// after every fully connected layer.
type Dropout struct {
	Rate float64
	rng  *rand.Rand

	mask *mat.Matrix

	maskWS workspace
	out    workspace
	grad   workspace
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward applies the dropout mask when train is true and is the identity
// otherwise.
func (d *Dropout) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	d.mask = d.maskWS.get(x.Rows, x.Cols)
	y := d.out.get(x.Rows, x.Cols)
	// The draw decides by conditional move, not by branch: both are
	// non-negative floats, which order like their bit patterns.
	keep := 1 - d.Rate
	inv := 1 / keep
	keepBits := math.Float64bits(keep)
	md, yd := d.mask.Data[:len(x.Data)], y.Data[:len(x.Data)]
	for i, v := range x.Data {
		mb, yb := math.Float64bits(inv), math.Float64bits(v*inv)
		if math.Float64bits(d.rng.Float64()) >= keepBits {
			mb, yb = 0, 0
		}
		md[i] = math.Float64frombits(mb)
		yd[i] = math.Float64frombits(yb)
	}
	return y
}

// Backward applies the same mask to the incoming gradient.
func (d *Dropout) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return gradOut
	}
	g := d.grad.get(gradOut.Rows, gradOut.Cols)
	mat.Hadamard(g, gradOut, d.mask)
	return g
}

// Params returns nil: Dropout has no learnable parameters.
func (d *Dropout) Params() []*Param { return nil }
