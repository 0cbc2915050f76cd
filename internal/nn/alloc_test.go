package nn

import (
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/mat"
)

// TestForwardBackwardZeroAlloc pins the workspace refactor: once a
// network has seen a batch size, Forward and Backward — the optimiser
// step of every layer and the dW scratch it borrows included — reuse the
// cached buffers and perform zero heap allocations.
func TestForwardBackwardZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(
		NewDense("l1", 32, 64, rng),
		&ReLU{},
		NewDropout(0.5, rng),
		NewDense("l2", 64, 8, rng),
	)
	x := mat.New(16, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	grad := mat.New(16, 8)
	grad.Fill(0.01)
	opt := NewAdam(0.0025)
	net.SetOptimizer(opt)

	for i := 0; i < 3; i++ {
		net.Forward(x, true)
		opt.Open()
		net.Backward(grad)
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.Forward(x, true)
		opt.Open()
		net.Backward(grad)
	})
	if allocs != 0 {
		t.Fatalf("warm Forward+Backward allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceAlternatingBatches verifies that alternating between two
// batch sizes — Twig's steady state of one-row inference interleaved with
// minibatch training — stays allocation-free once both are cached.
func TestWorkspaceAlternatingBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(NewDense("l", 16, 24, rng), &ReLU{})
	one := mat.New(1, 16)
	batch := mat.New(8, 16)
	for i := 0; i < 2; i++ {
		net.Forward(one, false)
		net.Forward(batch, true)
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.Forward(one, false)
		net.Forward(batch, true)
	})
	if allocs != 0 {
		t.Fatalf("alternating batch sizes allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceOwnership documents the reuse contract: a second Forward
// with the same batch size overwrites the previously returned matrix.
func TestWorkspaceOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense("l", 4, 4, rng)
	x := mat.New(2, 4)
	y1 := d.Forward(x, false)
	y2 := d.Forward(x, false)
	if y1 != y2 {
		t.Fatalf("Forward with an unchanged batch size must reuse its workspace")
	}
}
