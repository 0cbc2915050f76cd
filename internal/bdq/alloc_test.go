package bdq

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/replay"
)

// TestAgentObserveZeroAlloc pins the workspace refactor end to end: a
// warm Agent.Observe — store the transition, sample a prioritised
// minibatch, double-DQN forward/backward and the Adam step — performs
// zero heap allocations.
func TestAgentObserveZeroAlloc(t *testing.T) {
	spec := Spec{
		StateDim:     12,
		Agents:       2,
		Dims:         []int{6, 5},
		SharedHidden: []int{32, 16},
		BranchHidden: 8,
		Dropout:      0.5,
	}
	a := NewAgent(AgentConfig{
		Spec:           spec,
		BatchSize:      16,
		ReplayCapacity: 4096,
		UsePER:         true,
		Seed:           3,
	})
	state := make([]float64, spec.StateDim)
	next := make([]float64, spec.StateDim)
	for i := range state {
		state[i] = 0.2
		next[i] = 0.25
	}
	tr := replay.Transition{
		State:     state,
		Actions:   []int{1, 2, 3, 4},
		Rewards:   []float64{1, 1},
		NextState: next,
	}
	for i := 0; i < 3*16; i++ {
		a.Observe(tr)
	}
	allocs := testing.AllocsPerRun(20, func() {
		a.Observe(tr)
	})
	if allocs != 0 {
		t.Fatalf("warm Agent.Observe allocates %.1f times per run, want 0", allocs)
	}
}

// TestTrainStepAllocsWarm is the zero-allocation contract at shapes and
// data where the GEMM layer has something to compact: tiled products,
// distinct transitions, dropout on, over hundreds of steps whose live
// counts differ from one to the next. Every product reads a live set the
// layer or the network holds, most walk an index list and the backward
// ones pack a different number of panels every step — all of it in
// storage sized by the layer, not by the count (DESIGN.md, "The
// training step and its kernel tiers", on workspaces). The
// paper row is experiments.PaperScale's network and batch, the shape
// Table III and node_paper_twigc run.
func TestTrainStepAllocsWarm(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shared        []int
		branch, batch int
		runs          int
	}{
		{"128-64-32_batch32", []int{128, 64}, 32, 32, 500},
		{"paper_512-256-128_batch64", []int{512, 256}, 128, 64, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{
				StateDim:     22,
				Agents:       2,
				Dims:         []int{18, 9},
				SharedHidden: tc.shared,
				BranchHidden: tc.branch,
				Dropout:      0.5,
			}
			a := NewAgent(AgentConfig{Spec: spec, BatchSize: tc.batch, ReplayCapacity: 4096, UsePER: true, Seed: 3})
			rng := rand.New(rand.NewSource(9))
			trs := make([]replay.Transition, 3*tc.batch)
			for i := range trs {
				tr := replay.Transition{
					State:     make([]float64, spec.StateDim),
					NextState: make([]float64, spec.StateDim),
					Actions:   []int{rng.Intn(18), rng.Intn(9), rng.Intn(18), rng.Intn(9)},
					Rewards:   []float64{rng.NormFloat64(), rng.NormFloat64()},
				}
				for j := range tr.State {
					tr.State[j], tr.NextState[j] = rng.Float64(), rng.Float64()
				}
				trs[i] = tr
			}
			for _, tr := range trs {
				a.Observe(tr)
			}
			dead := false
			for _, l := range a.Online().LiveFractions() {
				dead = dead || l.Live < l.Width
			}
			if !dead {
				t.Fatal("no layer saw a dead input column: the test exercises no compaction")
			}
			next := 0
			second := a.Online().Denses()[1]
			seen := make([]bool, second.In+1)
			allocs := testing.AllocsPerRun(tc.runs, func() {
				a.Observe(trs[next%len(trs)])
				next++
				live, _ := second.LiveInputs()
				seen[live] = true
			})
			if allocs != 0 {
				t.Fatalf("warm Agent.Observe allocates %.2f times per run over %d runs, want 0", allocs, tc.runs)
			}
			counts := 0
			for _, s := range seen {
				if s {
					counts++
				}
			}
			if counts < 5 {
				t.Fatalf("the second layer saw only %d distinct live counts in %d steps: the minibatches do not vary", counts, tc.runs)
			}
		})
	}
}

// TestSelectAllocsWarm is the selection half of the contract: once an
// agent has selected twice, filling both of its action buffers, neither
// SelectActions nor SelectGreedy allocates, at the quick profile's
// network and at the paper's.
func TestSelectAllocsWarm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shared  []int
		branch  int
		dropout float64
	}{
		{"quick_64-48-32", []int{64, 48}, 32, 0},
		{"paper_512-256-128", []int{512, 256}, 128, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{StateDim: 22, Agents: 2, Dims: []int{18, 9}, SharedHidden: tc.shared, BranchHidden: tc.branch, Dropout: tc.dropout}
			a := NewAgent(AgentConfig{Spec: spec, ReplayCapacity: 64, Seed: 5})
			state := testState(spec.StateDim, 0, 0)
			a.SelectActions(state)
			a.SelectGreedy(state)
			for name, sel := range map[string]func([]float64) [][]int{
				"SelectActions": a.SelectActions,
				"SelectGreedy":  a.SelectGreedy,
			} {
				if allocs := testing.AllocsPerRun(100, func() { sel(state) }); allocs != 0 {
					t.Errorf("warm %s allocates %.2f times per call, want 0", name, allocs)
				}
			}
		})
	}
}

// TestSelectActionsLifetime pins what the returned actions may be used
// for: selection n's actions are intact after selection n+1, whichever
// of the two methods made either, and never share its storage.
func TestSelectActionsLifetime(t *testing.T) {
	a := NewAgent(poolTestCfg(6)) // ε starts at 1: consecutive selections differ
	dim := a.cfg.Spec.StateDim
	prev := a.SelectActions(testState(dim, 0, 0))
	changed := false
	for tt := 1; tt < 40; tt++ {
		want := fmt.Sprint(prev)
		var cur [][]int
		if tt%3 == 0 {
			cur = a.SelectGreedy(testState(dim, 0, tt))
		} else {
			cur = a.SelectActions(testState(dim, 0, tt))
		}
		if got := fmt.Sprint(prev); got != want {
			t.Fatalf("selection %d overwrote selection %d's actions: %s, was %s", tt, tt-1, got, want)
		}
		if &cur[0][0] == &prev[0][0] {
			t.Fatalf("selections %d and %d share storage", tt-1, tt)
		}
		changed = changed || fmt.Sprint(cur) != want
		prev = cur
	}
	if !changed {
		t.Fatal("every selection chose the same actions: the test checks nothing")
	}
}

// TestPoolFlushAllocsWarm is the same contract through the pool: a warm
// three-member FlushStep — every member stores a transition and trains on
// a minibatch that differs from the last, then selects — allocates
// nothing, over more than two hundred flushes.
func TestPoolFlushAllocsWarm(t *testing.T) {
	const members = 3
	spec := poolTestCfg(0).Spec
	pool := NewAgentPool()
	var pooled []*PooledAgent
	trs := make([][]replay.Transition, members)
	for i := 0; i < members; i++ {
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(500+i)))))
		for tt := 0; tt < 48; tt++ {
			trs[i] = append(trs[i], replay.Transition{
				State:     testState(spec.StateDim, i, tt),
				Actions:   []int{tt % 5, tt % 4, (tt + i) % 5, (tt + 1) % 4},
				Rewards:   testRewards(spec.Agents, i, tt),
				NextState: testState(spec.StateDim, i, tt+1),
			})
		}
	}
	next := 0
	flush := func() {
		for i, pa := range pooled {
			tr := trs[i][next%len(trs[i])]
			pa.QueueObserve(tr)
			pa.QueueSelect(tr.NextState, next%7 == 0)
		}
		pool.FlushStep()
		for _, pa := range pooled {
			if pa.TakeActions() == nil {
				t.Fatal("a member selected nothing")
			}
		}
		next++
	}
	for next < 48 {
		flush()
	}
	losses := make(map[float64]bool, 512) // sized up front: the closure must not allocate either
	allocs := testing.AllocsPerRun(250, func() {
		flush()
		losses[pooled[0].TakeLoss()] = true
	})
	if allocs != 0 {
		t.Fatalf("warm three-member FlushStep allocates %.2f times per run over 250 runs, want 0", allocs)
	}
	if len(losses) < 200 {
		t.Fatalf("only %d distinct losses in 250 flushes: the members did not train on varied minibatches", len(losses))
	}
}

// TestTrainStepWorkspaceReuseMatchesFresh verifies that the reused
// TrainStep scratch does not leak state between steps: two agents with
// identical seeds and inputs stay in lockstep across many training steps
// (the second agent is driven through the same Observe sequence).
func TestTrainStepWorkspaceReuseMatchesFresh(t *testing.T) {
	build := func() *Agent {
		return NewAgent(AgentConfig{
			Spec: Spec{
				StateDim:     8,
				Agents:       1,
				Dims:         []int{4, 3},
				SharedHidden: []int{16},
				BranchHidden: 8,
			},
			BatchSize:      8,
			ReplayCapacity: 512,
			UsePER:         true,
			Seed:           11,
		})
	}
	a1, a2 := build(), build()
	state := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 64; i++ {
		next := []float64{0, 1, 2, 3, 4, 5, 6, float64(i % 7)}
		tr := replay.Transition{State: state, Actions: []int{i % 4, i % 3}, Rewards: []float64{float64(i % 3)}, NextState: next}
		l1 := a1.Observe(tr)
		l2 := a2.Observe(tr)
		if l1 != l2 {
			t.Fatalf("step %d: losses diverged: %v vs %v", i, l1, l2)
		}
		state = next
	}
	q1 := a1.QValues(state)
	q2 := a2.QValues(state)
	for k := range q1 {
		for d := range q1[k] {
			for j := range q1[k][d] {
				if q1[k][d][j] != q2[k][d][j] {
					t.Fatalf("Q[%d][%d][%d] diverged: %v vs %v", k, d, j, q1[k][d][j], q2[k][d][j])
				}
			}
		}
	}
}
