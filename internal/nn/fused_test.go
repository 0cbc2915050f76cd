package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
)

// Golden equality tests for the fused hot path: a NewDenseReLU +
// StepAndZeroGrad training loop must match the unfused NewDense + ReLU
// + ZeroGrad + Step loop to the last bit — parameter values, Adam
// moments and per-step outputs compared as raw float bits (%x), serial
// and parallel, and across a checkpoint round-trip taken mid-training.

// buildUnfused and buildFused construct the same 22→64→32→1 regressor
// from the same seed; the fused variant collapses each Dense+ReLU pair.
func buildUnfused(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewDense("h1", 22, 64, rng),
		&ReLU{},
		NewDense("h2", 64, 32, rng),
		&ReLU{},
		NewDense("out", 32, 1, rng),
	)
}

func buildFused(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewDenseReLU("h1", 22, 64, rng),
		NewDenseReLU("h2", 64, 32, rng),
		NewDense("out", 32, 1, rng),
	)
}

// trainBatch runs one forward/backward on deterministic data and returns
// the prediction matrix (a workspace — compare before the next step).
func trainBatch(net *Sequential, rng *rand.Rand, xb, yb *mat.Matrix) *mat.Matrix {
	for i := range xb.Data {
		xb.Data[i] = rng.NormFloat64()
	}
	for i := range yb.Data {
		yb.Data[i] = rng.NormFloat64()
	}
	pred := net.Forward(xb, true)
	_, grad := MSE(pred, yb)
	net.Backward(grad)
	return pred
}

func requireParamsBitEqual(t *testing.T, tag string, fused, unfused []*Param) {
	t.Helper()
	if len(fused) != len(unfused) {
		t.Fatalf("%s: %d params vs %d", tag, len(fused), len(unfused))
	}
	for i, pf := range fused {
		pu := unfused[i]
		if pf.Name != pu.Name {
			t.Fatalf("%s: param %d name %q vs %q", tag, i, pf.Name, pu.Name)
		}
		for j := range pf.Panels.Data {
			if got, want := math.Float64bits(pf.Panels.Data[j]), math.Float64bits(pu.Panels.Data[j]); got != want {
				t.Fatalf("%s: %s value[%d] = %x, unfused %x", tag, pf.Name, j, got, want)
			}
		}
		if (pf.m == nil) != (pu.m == nil) {
			t.Fatalf("%s: %s moment presence differs", tag, pf.Name)
		}
		if pf.m == nil {
			continue
		}
		for j := range pf.m.Data {
			if math.Float64bits(pf.m.Data[j]) != math.Float64bits(pu.m.Data[j]) {
				t.Fatalf("%s: %s m[%d] differs: %x vs %x", tag, pf.Name, j,
					math.Float64bits(pf.m.Data[j]), math.Float64bits(pu.m.Data[j]))
			}
			if math.Float64bits(pf.v.Data[j]) != math.Float64bits(pu.v.Data[j]) {
				t.Fatalf("%s: %s v[%d] differs: %x vs %x", tag, pf.Name, j,
					math.Float64bits(pf.v.Data[j]), math.Float64bits(pu.v.Data[j]))
			}
		}
	}
}

// runFusedVsUnfused trains both variants for steps steps on identical
// data, checking outputs and full optimiser state bitwise after every
// step. Batch 64 crosses the packed-GEMM and parallel thresholds;
// batch 1 stays on the streaming path.
func runFusedVsUnfused(t *testing.T, batch, steps int) {
	unfused := buildUnfused(7)
	fused := buildFused(7)
	requireParamsBitEqual(t, "init", fused.Params(), unfused.Params())

	optU := NewAdam(0.0025)
	optF := NewAdam(0.0025)
	rngU := rand.New(rand.NewSource(99))
	rngF := rand.New(rand.NewSource(99))
	xbU, ybU := mat.New(batch, 22), mat.New(batch, 1)
	xbF, ybF := mat.New(batch, 22), mat.New(batch, 1)

	for s := 0; s < steps; s++ {
		unfused.ZeroGrad()
		predU := trainBatch(unfused, rngU, xbU, ybU)
		predF := trainBatch(fused, rngF, xbF, ybF)
		for i := range predU.Data {
			if math.Float64bits(predU.Data[i]) != math.Float64bits(predF.Data[i]) {
				t.Fatalf("step %d: pred[%d] fused %x, unfused %x", s, i,
					math.Float64bits(predF.Data[i]), math.Float64bits(predU.Data[i]))
			}
		}
		optU.Step(unfused.Params())
		optF.StepAndZeroGrad(fused.Params())
		requireParamsBitEqual(t, "after step", fused.Params(), unfused.Params())
	}
}

func TestFusedMatchesUnfusedSerial(t *testing.T) {
	runFusedVsUnfused(t, 64, 25)
	runFusedVsUnfused(t, 1, 25) // streaming (non-packed) path
}

// TestFusedCheckpointRoundTrip trains the fused network, checkpoints
// mid-run, keeps training, then restores into a fresh fused network and
// replays the tail — the replay must land on bit-identical state, and
// the checkpoint must also restore into an *unfused* network (same
// param names/shapes) and train on to the same bits.
func TestFusedCheckpointRoundTrip(t *testing.T) {
	const batch, head, tail = 64, 10, 10
	fused := buildFused(7)
	opt := NewAdam(0.0025)
	rng := rand.New(rand.NewSource(99))
	xb, yb := mat.New(batch, 22), mat.New(batch, 1)
	for s := 0; s < head; s++ {
		trainBatch(fused, rng, xb, yb)
		opt.StepAndZeroGrad(fused.Params())
	}
	enc := checkpoint.NewEncoder()
	EncodeParams(enc, fused.Params())
	opt.EncodeState(enc)
	blob := enc.Bytes()
	// Seed for the identical data stream every tail replay consumes.
	tailSeed := rng.Int63()

	run := func(net *Sequential, o *Adam, tag string) {
		dec := checkpoint.NewDecoder(blob)
		if err := DecodeParams(dec, net.Params()); err != nil {
			t.Fatalf("%s: decode params: %v", tag, err)
		}
		if err := o.DecodeState(dec); err != nil {
			t.Fatalf("%s: decode opt: %v", tag, err)
		}
		r := rand.New(rand.NewSource(tailSeed))
		x, y := mat.New(batch, 22), mat.New(batch, 1)
		for s := 0; s < tail; s++ {
			net.ZeroGrad()
			trainBatch(net, r, x, y)
			o.Step(net.Params())
		}
	}

	fusedR := buildFused(7)
	optFR := NewAdam(0.0025)
	run(fusedR, optFR, "fused-restore")

	unfusedR := buildUnfused(7)
	optUR := NewAdam(0.0025)
	run(unfusedR, optUR, "unfused-restore")

	requireParamsBitEqual(t, "restored tails", fusedR.Params(), unfusedR.Params())

	// The original keeps training through the same tail; all three must agree.
	r := rand.New(rand.NewSource(tailSeed))
	for s := 0; s < tail; s++ {
		trainBatch(fused, r, xb, yb)
		opt.StepAndZeroGrad(fused.Params())
	}
	requireParamsBitEqual(t, "original vs restored", fused.Params(), fusedR.Params())
}
