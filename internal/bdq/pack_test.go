package bdq

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/replay"
)

// requirePacks holds every dense layer of n to the pack-in-step
// invariant's conclusion: its persistent panels are mat.PackB of the
// weights it holds now, bit for bit.
func requirePacks(t *testing.T, tag string, n *Network) {
	t.Helper()
	for _, d := range n.Denses() {
		if d.Pack() == nil {
			t.Fatalf("%s: %s has no pack", tag, d.W.Name)
		}
		got, want := d.Pack().Data, mat.PackB(d.W.Value).Data
		if len(got) != len(want) {
			t.Fatalf("%s: %s pack has %d elements, want %d", tag, d.W.Name, len(got), len(want))
		}
		for i, w := range want {
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s: %s pack[%d] = %v, the weights pack to %v", tag, d.W.Name, i, got[i], w)
			}
		}
	}
}

// TestPackFollowsEveryWeightWriter walks an agent through everything
// that writes its weights and checks the packed panels behind them. An
// optimiser step must leave the online network's packs current by itself
// — the Adam kernel writes the full-panel layers' (widths 32, 16, 8
// here), the ragged heads (5, 4, 1) are repacked behind their update,
// and under TWIG_DISABLE_AVX2 everything is — and the Forward that
// follows must not repack: a sentinel scribbled into every pack survives
// it. The rare writers — target sync, Transfer, CopyWeightsFrom, a
// checkpoint DecodeState — leave the packs to the next use
// (ensurePacks), after which they must be current too; so must a pooled
// member's, whose grouped selection reads the same panels.
func TestPackFollowsEveryWeightWriter(t *testing.T) {
	tiertest.EachLower(t)
	cfg := poolTestCfg(3)
	a, donor := NewAgent(cfg), NewAgent(poolTestCfg(4))
	K, dim := cfg.Spec.Agents, cfg.Spec.StateDim
	tt := 0
	observe := func(ag interface {
		Observe(replay.Transition) float64
	}, who int) {
		tt++
		acts := make([]int, K*len(cfg.Spec.Dims))
		ag.Observe(replay.Transition{
			State: testState(dim, who, tt), Actions: acts,
			Rewards: testRewards(K, who, tt), NextState: testState(dim, who, tt+1),
		})
	}
	for i := 0; i < cfg.WarmupSteps+3; i++ {
		observe(a, 0)
		observe(donor, 1)
	}
	if a.trainSteps == 0 {
		t.Fatal("the agent has not trained")
	}
	x := mat.FromSlice(1, dim, testState(dim, 0, 99))
	// use runs both networks the way the next interval would.
	use := func(tag string) {
		t.Helper()
		a.online.Forward(x, false)
		a.target.Forward(x, false)
		requirePacks(t, tag+": online", a.online)
		requirePacks(t, tag+": target", a.target)
	}
	// stepLeavesPacksCurrent is the optimiser step's half: no Forward
	// between the step and the check, and none that repacks after it.
	stepLeavesPacksCurrent := func(tag string) {
		t.Helper()
		for a.trainSteps%cfg.TargetSync == cfg.TargetSync-1 {
			a.TrainStep() // keep the target sync out of this one
		}
		a.TrainStep()
		requirePacks(t, tag+": after an optimiser step", a.online)
		const sentinel = 12345.6789
		var was []float64
		for _, d := range a.online.Denses() {
			was = append(was, d.Pack().Data[0])
			d.Pack().Data[0] = sentinel
		}
		a.online.Forward(x, false)
		a.SelectGreedy(testState(dim, 0, 98))
		for i, d := range a.online.Denses() {
			if d.Pack().Data[0] != sentinel {
				t.Fatalf("%s: Forward after an optimiser step repacked %s", tag, d.W.Name)
			}
			d.Pack().Data[0] = was[i]
		}
		requirePacks(t, tag+": sentinel restored", a.online)
	}

	stepLeavesPacksCurrent("warm")

	for a.trainSteps%cfg.TargetSync != 0 {
		a.TrainStep()
	}
	use("target sync")
	stepLeavesPacksCurrent("after target sync")

	a.Transfer(0)
	use("Transfer")
	stepLeavesPacksCurrent("after Transfer")

	a.CopyWeightsFrom(donor)
	use("CopyWeightsFrom")
	requireBits(t, "CopyWeightsFrom: shared0 weights", a.online.Denses()[0].W.Value.Data, donor.online.Denses()[0].W.Value.Data)
	stepLeavesPacksCurrent("after CopyWeightsFrom")

	// A step straight after a writer, before anything refreshed the packs:
	// it rewrites every weight, so it alone must make them current.
	a.CopyWeightsFrom(donor)
	stepLeavesPacksCurrent("a step on stale packs")

	if err := a.DecodeState(checkpoint.NewDecoder(encodeAgent(donor))); err != nil {
		t.Fatal(err)
	}
	use("DecodeState")
	stepLeavesPacksCurrent("after DecodeState")

	pool := NewAgentPool()
	pa := pool.Attach(a)
	defer pa.Close()
	pa.SelectGreedy(testState(dim, 0, 97))
	requirePacks(t, "pooled member's attach", a.online)
	observe(pa, 0)
	requirePacks(t, "pooled member's training step", a.online)
	if err := a.DecodeState(checkpoint.NewDecoder(encodeAgent(donor))); err != nil {
		t.Fatal(err)
	}
	pa.SelectGreedy(testState(dim, 0, 96))
	requirePacks(t, "pooled member's reload", a.online)
}
