package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/twig-sched/twig/internal/mat"
)

// Layer is one differentiable stage of a network. Forward consumes a
// batch (rows = samples) and Backward consumes the gradient of the loss
// with respect to the layer output, accumulating parameter gradients and
// returning the gradient with respect to the layer input.
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
	// output: Backward accumulates dW and db and returns nil instead of
	// g·Wᵀ, which nobody would read. Owners set it on a network's first
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

	out     workspace // y, batch×Out
	gradIn  workspace // gradient wrt input, batch×In
	gm      workspace // masked gradient, batch×Out (FuseReLU only)
	colSums []float64
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

// Backward accumulates dW = xᵀ·g and db = Σ_rows g, returning g·Wᵀ
// (nil under NoInputGrad). The first call allocates W's and B's
// gradients.
// When FuseReLU is set, g is first masked by the activation gradient;
// the mask application and the bias column sums share one sweep, and the
// weight-gradient GEMM accumulates directly into W.Grad.
func (d *Dense) Backward(gradOut *mat.Matrix) *mat.Matrix {
	var gradIn *mat.Matrix
	if !d.NoInputGrad {
		gradIn = d.gradIn.get(gradOut.Rows, d.In)
	}
	d.backward(gradOut, gradIn, false)
	return gradIn
}

// BackwardAcc is Backward with g·Wᵀ added to sum instead of returned:
// sum[ij] + (g·Wᵀ)[ij], one rounding, which is bitwise the
// `sum += Backward(gradOut)` it replaces — for a layer whose input
// gradient the owner totals over several branches. sum holds no −0
// (mat.MulTransAAcc's precondition): under GatedInput the columns the
// gate leaves out keep what sum holds there.
func (d *Dense) BackwardAcc(gradOut, sum *mat.Matrix) {
	d.backward(gradOut, sum, true)
}

func (d *Dense) backward(gradOut, gradIn *mat.Matrix, accumulate bool) {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.colSums == nil {
		d.colSums = make([]float64, d.Out)
	}
	g := gradOut
	if d.FuseReLU {
		gm := d.gm.get(gradOut.Rows, gradOut.Cols)
		// Fused sweep: mask by "output > 0" (⟺ pre-activation > 0) and
		// build the bias column sums in the same row-major order as
		// ColSumsInto, so the sums are bit-identical to the unfused pair.
		clear(d.colSums)
		for i := 0; i < gradOut.Rows; i++ {
			maskReLUGrad(gm.Row(i), d.colSums, gradOut.Row(i), d.lastOut.Row(i))
		}
		g = gm
	} else {
		gradOut.ColSumsInto(d.colSums)
	}
	// The live × live block: dW's rows from x's live set, its columns from
	// g's; g·Wᵀ's depth from g's and, under GatedInput, its columns from
	// x's. MulTransAAcc leaves both sets scanned. W.Grad and an
	// accumulated input gradient hold no −0, the products' precondition:
	// they start the step at +0 and only have sums added.
	d.gLive.Reset()
	mat.MulTransAAcc(d.W.grad(), d.lastX, d.xLive, g, &d.gLive)
	mat.Axpy(1, d.colSums, d.B.grad().Data)

	if gradIn == nil {
		return
	}
	var gate *mat.Live
	if d.GatedInput {
		gate = d.xLive
	}
	// W's panels carry their Finite bit, which spares g·Wᵀ its scan of W
	// for Inf and NaN.
	mat.MulTransBPacked(gradIn, g, &d.gLive, d.W.Panels, gate, accumulate)
}

// maskReLUGrad is one row of the fused DenseReLU backward sweep: m gets
// g where the layer's output y was positive and +0 elsewhere, and the
// survivors are added to the column sums cs. Which elements survive is a
// coin flip per element, so the mask is applied to the bit pattern (a
// conditional move) and every element is added: a masked one adds +0,
// which leaves a sum that started at +0 — and so is never −0 — as it was.
func maskReLUGrad(m, cs, g, y []float64) {
	m, cs, y = m[:len(g)], cs[:len(g)], y[:len(g)]
	for j, v := range g {
		b := math.Float64bits(v)
		if math.Float64bits(y[j])-1 >= 0x7FF0000000000000 { // !(y > 0)
			b = 0
		}
		mv := math.Float64frombits(b)
		m[j] = mv
		cs[j] += mv
	}
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
