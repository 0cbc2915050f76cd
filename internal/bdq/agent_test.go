package bdq

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/twig-sched/twig/internal/replay"
)

func TestEpsilonSchedule(t *testing.T) {
	e := EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.01, MidStep: 100, EndStep: 200}
	if e.At(0) != 1 {
		t.Fatalf("At(0) = %v", e.At(0))
	}
	if got := e.At(50); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("At(50) = %v", got)
	}
	if got := e.At(100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("At(100) = %v", got)
	}
	if got := e.At(150); math.Abs(got-0.055) > 1e-12 {
		t.Fatalf("At(150) = %v", got)
	}
	if e.At(500) != 0.01 {
		t.Fatalf("At(500) = %v", e.At(500))
	}
	zero := EpsilonSchedule{End: 0.05}
	if zero.At(10) != 0.05 {
		t.Fatal("degenerate schedule should return End")
	}
}

func TestAgentConfigDefaults(t *testing.T) {
	c := AgentConfig{Spec: smallSpec()}.Defaults()
	if c.Gamma != 0.99 || c.LearningRate != 0.0025 || c.BatchSize != 64 ||
		c.TargetSync != 150 || c.ReplayCapacity != 1_000_000 ||
		c.PERAlpha != 0.6 || c.PERBeta0 != 0.4 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Epsilon.MidStep != 10_000 || c.Epsilon.EndStep != 25_000 {
		t.Fatalf("epsilon defaults = %+v", c.Epsilon)
	}
}

func testAgentConfig(seed int64) AgentConfig {
	return AgentConfig{
		Spec: Spec{
			StateDim:     4,
			Agents:       2,
			Dims:         []int{3, 2},
			SharedHidden: []int{24, 16},
			BranchHidden: 12,
		},
		LearningRate: 0.005,
		BatchSize:    16,
		TargetSync:   25,
		UsePER:       true,
		Epsilon:      EpsilonSchedule{Start: 1, Mid: 0.1, End: 0.02, MidStep: 300, EndStep: 600},
		Seed:         seed,
	}
}

func TestAgentActionShapesAndRanges(t *testing.T) {
	a := NewAgent(testAgentConfig(1))
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 50; i++ {
		acts := a.SelectActions(state)
		if len(acts) != 2 {
			t.Fatalf("agents = %d", len(acts))
		}
		for _, per := range acts {
			if per[0] < 0 || per[0] >= 3 || per[1] < 0 || per[1] >= 2 {
				t.Fatalf("out-of-range actions %v", per)
			}
		}
	}
	if a.Step() != 50 {
		t.Fatalf("Step = %d", a.Step())
	}
	// SelectGreedy must not advance the step counter.
	a.SelectGreedy(state)
	if a.Step() != 50 {
		t.Fatal("SelectGreedy advanced step counter")
	}
}

func TestAgentObservePanicsOnBadTransition(t *testing.T) {
	a := NewAgent(testAgentConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Observe(replay.Transition{
		State:     []float64{0, 0, 0, 0},
		Actions:   []int{1}, // want 2 agents × 2 dims = 4
		Rewards:   []float64{0, 0},
		NextState: []float64{0, 0, 0, 0},
	})
}

// TestAgentLearnsContextualBandit: two agents, state bit s_k tells agent
// k which action of dimension 0 is rewarded. After training, the greedy
// policy must match the context for both agents — this exercises the
// whole pipeline: PER, target net, dueling backprop, per-agent heads.
func TestAgentLearnsContextualBandit(t *testing.T) {
	cfg := testAgentConfig(7)
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(42))

	rewardFor := func(state []float64, acts [][]int) []float64 {
		r := make([]float64, 2)
		for k := 0; k < 2; k++ {
			want := 0
			if state[k] > 0.5 {
				want = 2
			}
			if acts[k][0] == want {
				r[k] = 1
			} else {
				r[k] = -1
			}
		}
		return r
	}
	newState := func() []float64 {
		return []float64{float64(rng.Intn(2)), float64(rng.Intn(2)), 0.5, 0.5}
	}

	state := newState()
	for step := 0; step < 900; step++ {
		acts := a.SelectActions(state)
		r := rewardFor(state, acts)
		next := newState()
		flat := []int{acts[0][0], acts[0][1], acts[1][0], acts[1][1]}
		a.Observe(replay.Transition{
			State: state, Actions: flat, Rewards: r, NextState: next,
		})
		state = next
	}

	correct := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		s := newState()
		acts := a.SelectGreedy(s)
		r := rewardFor(s, acts)
		if r[0] > 0 {
			correct++
		}
		if r[1] > 0 {
			correct++
		}
	}
	frac := float64(correct) / (2 * trials)
	if frac < 0.9 {
		t.Fatalf("greedy policy correct %.2f of the time, want ≥ 0.9", frac)
	}
}

// TestAgentCopyWeightsFrom: the receiver's online and target networks
// hold the donor's online weights bit for bit; everything else stays its
// own (no optimiser step, replay entry or ε position comes across).
func TestAgentCopyWeightsFrom(t *testing.T) {
	a := NewAgent(testAgentConfig(3))
	state := []float64{0.3, 0.6, 0.1, 0.9}
	// Perturb weights via a few training steps.
	for i := 0; i < 40; i++ {
		acts := a.SelectActions(state)
		flat := []int{acts[0][0], acts[0][1], acts[1][0], acts[1][1]}
		a.Observe(replay.Transition{State: state, Actions: flat, Rewards: []float64{1, -1}, NextState: state})
	}
	b := NewAgent(testAgentConfig(99))
	b.CopyWeightsFrom(a)
	want := a.online.Params()
	for _, n := range []*Network{b.online, b.target} {
		for i, p := range n.Params() {
			for j, v := range p.Value.Data {
				if math.Float64bits(v) != math.Float64bits(want[i].Value.Data[j]) {
					t.Fatalf("param %s[%d] = %v, donor has %v", p.Name, j, v, want[i].Value.Data[j])
				}
			}
		}
	}
	if b.ReplayLen() != 0 || b.trainSteps != 0 || b.step != 0 {
		t.Fatalf("more than weights came across: replay %d, train steps %d, step %d", b.ReplayLen(), b.trainSteps, b.step)
	}
	ga := a.SelectGreedy(state)
	gb := b.SelectGreedy(state)
	for k := range ga {
		for d := range ga[k] {
			if ga[k][d] != gb[k][d] {
				t.Fatalf("greedy actions differ after the copy: %v vs %v", ga, gb)
			}
		}
	}
}

func TestAgentTransferResetsExploration(t *testing.T) {
	a := NewAgent(testAgentConfig(4))
	state := []float64{0.1, 0.1, 0.1, 0.1}
	for i := 0; i < 700; i++ {
		a.SelectActions(state)
	}
	before := a.Epsilon()
	if before > 0.05 {
		t.Fatalf("epsilon before transfer = %v", before)
	}
	a.Transfer(0)
	if a.Epsilon() != 1 {
		t.Fatalf("epsilon after Transfer(0) = %v", a.Epsilon())
	}
}

func TestFlatDQNEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFlatDQN(4, []int{18, 9}, []int{8}, rng)
	if f.NumActions() != 162 {
		t.Fatalf("NumActions = %d", f.NumActions())
	}
	for idx := 0; idx < 162; idx += 13 {
		if got := f.Encode(f.Decode(idx)); got != idx {
			t.Fatalf("Encode(Decode(%d)) = %d", idx, got)
		}
	}
	acts := f.Decode(161)
	if acts[0] != 17 || acts[1] != 8 {
		t.Fatalf("Decode(161) = %v", acts)
	}
}

func TestQTableEntriesMatchesPaperExample(t *testing.T) {
	// Paper: 25 buckets × 3^30 entries ≈ 5.15e15.
	got := QTableEntries(25, 30, 3)
	want := 25 * math.Pow(3, 30)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("QTableEntries = %v, want %v", got, want)
	}
	// Memory in the order of TBs at 8 bytes per entry, as claimed.
	if got*8 < 1e15 {
		t.Fatal("paper example should be petabyte-scale raw, TB-scale with any packing")
	}
}

// TestBranchingVsFlatMemory: the headline memory-complexity claim — the
// BDQ grows linearly in dimensions while the flat DQN grows
// exponentially.
func TestBranchingVsFlatMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spec := Spec{
		StateDim:     11,
		Agents:       1,
		Dims:         []int{30, 30, 30},
		SharedHidden: []int{512, 256},
		BranchHidden: 128,
	}
	b := NewNetwork(spec, rng)
	f := NewFlatDQN(11, []int{30, 30, 30}, []int{512, 256}, rng)
	if f.NumActions() != 27000 {
		t.Fatalf("flat actions = %d", f.NumActions())
	}
	if b.NumParams() >= f.NumParams() {
		t.Fatalf("BDQ params %d should be < flat DQN params %d", b.NumParams(), f.NumParams())
	}
	// Twig-S claim: under 5 MB for D=3, N=30.
	if b.MemoryBytes() > 5<<20 {
		t.Fatalf("BDQ memory %d B exceeds 5 MB", b.MemoryBytes())
	}
}

// A learner's memory follows its experience, not its replay capacity:
// at the paper's default of 10⁶ slots a new agent, and the same agent
// after the 1 350 transitions a fleet replica gathers in the benchmark,
// has allocated less than a megabyte in total. Before the ring grew on
// demand and the sum-tree was paged a new PER agent cost 115 MB.
func TestNewAgentFootprint(t *testing.T) {
	for _, usePER := range []bool{true, false} {
		cfg := testAgentConfig(1)
		cfg.UsePER = usePER
		cfg.WarmupSteps = 1 << 30 // store only: training allocates workspaces of its own
		tr := replay.Transition{
			State:     []float64{0, 0, 0, 0},
			Actions:   []int{1, 0, 2, 1},
			Rewards:   []float64{0, 0},
			NextState: []float64{0, 0, 0, 0},
		}
		var start, built, filled runtime.MemStats
		runtime.ReadMemStats(&start)
		a := NewAgent(cfg)
		runtime.ReadMemStats(&built)
		for i := 0; i < 1350; i++ {
			a.Observe(tr)
		}
		runtime.ReadMemStats(&filled)
		const limit = 1 << 20
		if got := built.TotalAlloc - start.TotalAlloc; got > limit {
			t.Errorf("UsePER=%v: NewAgent at capacity %d allocated %d bytes, want < %d",
				usePER, a.cfg.ReplayCapacity, got, limit)
		}
		if got := filled.TotalAlloc - start.TotalAlloc; got > limit {
			t.Errorf("UsePER=%v: agent with %d transitions allocated %d bytes in total, want < %d",
				usePER, a.ReplayLen(), got, limit)
		}
	}
}
