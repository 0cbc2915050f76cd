package bdq

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/replay"
)

// Golden differential: the pooled path (queued work, run member by
// member inside the flush) must be bit-identical to the per-agent path —
// proven by comparing selected actions, losses and full checkpoint bytes
// (weights, Adam moments, RNG draw positions, replay state) after
// lockstep trajectories.

func poolTestCfg(seed int64) AgentConfig {
	return AgentConfig{
		Spec: Spec{
			StateDim:     12,
			Agents:       2,
			Dims:         []int{5, 4},
			SharedHidden: []int{32, 16},
			BranchHidden: 8,
			Dropout:      0.5, // exercises train-mode RNG draw ordering
		},
		BatchSize:      8,
		WarmupSteps:    8,
		TargetSync:     5,
		UsePER:         true,
		PERAnnealSteps: 100,
		Seed:           seed,
	}
}

func testState(dim, ai, t int) []float64 {
	s := make([]float64, dim)
	for j := range s {
		s[j] = math.Sin(float64(ai*1009 + t*7 + j*13))
	}
	return s
}

func testRewards(k, ai, t int) []float64 {
	r := make([]float64, k)
	for i := range r {
		r[i] = math.Cos(float64(ai*31+t*3+i)) * 0.5
	}
	return r
}

func flatActs(acts [][]int) []int {
	var out []int
	for _, row := range acts {
		out = append(out, row...)
	}
	return out
}

func encodeAgent(a *Agent) []byte {
	e := checkpoint.NewEncoder()
	a.EncodeState(e)
	return e.Bytes()
}

// drive steps a solo and a pooled population through the same
// deterministic environment in lockstep, comparing actions each
// interval and checkpoint bytes at the end.
func drive(t *testing.T, agents []*Agent, pooled []*PooledAgent, pool *AgentPool, steps, startT int, greedyEvery int) {
	t.Helper()
	S := len(agents)
	spec := agents[0].cfg.Spec
	K, D := spec.Agents, len(spec.Dims)
	prevState := make([][]float64, S)
	prevActsSolo := make([][]int, S)
	prevActsPool := make([][]int, S)
	for tt := startT; tt < startT+steps; tt++ {
		greedy := greedyEvery > 0 && tt%greedyEvery == 0
		// Per-agent path: observe then select, agent by agent.
		soloActs := make([][][]int, S)
		for i, a := range agents {
			state := testState(spec.StateDim, i, tt)
			if prevState[i] != nil {
				a.Observe(replay.Transition{
					State:     prevState[i],
					Actions:   prevActsSolo[i],
					Rewards:   testRewards(K, i, tt),
					NextState: state,
				})
			}
			if greedy {
				soloActs[i] = a.SelectGreedy(state)
			} else {
				soloActs[i] = a.SelectActions(state)
			}
		}
		// Pooled path: queue everything, one flush, then collect.
		for i, pa := range pooled {
			state := testState(spec.StateDim, i, tt)
			if prevState[i] != nil {
				pa.QueueObserve(replay.Transition{
					State:     prevState[i],
					Actions:   prevActsPool[i],
					Rewards:   testRewards(K, i, tt),
					NextState: state,
				})
			}
			pa.QueueSelect(state, greedy)
		}
		pool.FlushStep()
		for i, pa := range pooled {
			got := pa.TakeActions()
			if fmt.Sprint(got) != fmt.Sprint(soloActs[i]) {
				t.Fatalf("t=%d agent %d: pooled actions %v != solo %v", tt, i, got, soloActs[i])
			}
			prevState[i] = testState(spec.StateDim, i, tt)
			prevActsSolo[i] = flatActs(soloActs[i])
			prevActsPool[i] = flatActs(got)
			if len(prevActsSolo[i]) != K*D {
				t.Fatalf("bad action shape")
			}
		}
	}
	for i := range agents {
		if !bytes.Equal(encodeAgent(agents[i]), encodeAgent(pooled[i].Agent)) {
			t.Fatalf("agent %d: pooled checkpoint bytes diverged from solo", i)
		}
	}
}

func TestPoolBitIdenticalSelectAndTrain(t *testing.T) {
	const S = 3
	var agents []*Agent
	var pooled []*PooledAgent
	pool := NewAgentPool()
	for i := 0; i < S; i++ {
		agents = append(agents, NewAgent(poolTestCfg(int64(100+i))))
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(100+i)))))
	}
	drive(t, agents, pooled, pool, 40, 0, 7) // mixes ε-greedy and pure-greedy intervals
}

// TestPoolBitIdenticalVariantConfigs drives the pool through the
// branches the default config leaves cold: per-branch bootstrap
// targets, the shared-value ablation, a dropout-free trunk and several
// training rounds per flush, each against solo twins.
func TestPoolBitIdenticalVariantConfigs(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*AgentConfig)
	}{
		{"perbranch", func(c *AgentConfig) { c.TargetMode = TargetPerBranch }},
		{"sharedvalue", func(c *AgentConfig) { c.Spec.SharedValue = true }},
		{"nodropout", func(c *AgentConfig) { c.Spec.Dropout = 0 }},
		{"trainperstep", func(c *AgentConfig) { c.TrainPerStep = 2 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			const S = 2
			var agents []*Agent
			var pooled []*PooledAgent
			pool := NewAgentPool()
			for i := 0; i < S; i++ {
				cfg := poolTestCfg(int64(300 + i))
				v.mut(&cfg)
				agents = append(agents, NewAgent(cfg))
				cfg2 := poolTestCfg(int64(300 + i))
				v.mut(&cfg2)
				pooled = append(pooled, pool.Attach(NewAgent(cfg2)))
			}
			drive(t, agents, pooled, pool, 30, 0, 9)
		})
	}
}

// TestPoolConcurrentTraining runs one goroutine per member, each running
// full Observe/Select cycles concurrently — the fleet-engine shape. Run
// with -race this checks that members share nothing a concurrent
// selection or training step writes; member counts shrink and grow
// mid-run via churn.
func TestPoolConcurrentTraining(t *testing.T) {
	const S = 4
	pool := NewAgentPool()
	var pooled []*PooledAgent
	for i := 0; i < S; i++ {
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(400+i)))))
	}
	done := make(chan struct{}, S)
	for i, pa := range pooled {
		go func(i int, pa *PooledAgent) {
			defer func() { done <- struct{}{} }()
			spec := pa.Agent.cfg.Spec
			var prevState []float64
			var prevActs []int
			for tt := 0; tt < 40; tt++ {
				state := testState(spec.StateDim, i, tt)
				if prevState != nil {
					pa.Observe(replay.Transition{
						State:     prevState,
						Actions:   prevActs,
						Rewards:   testRewards(spec.Agents, i, tt),
						NextState: state,
					})
				}
				prevActs = flatActs(pa.SelectActions(state))
				prevState = state
			}
		}(i, pa)
	}
	for range pooled {
		<-done
	}
	// Churn under load: drain one member, admit a replacement, train on.
	pooled[2].Close()
	repl := pool.Attach(NewAgent(poolTestCfg(999)))
	solo := NewAgent(poolTestCfg(999))
	drive(t, []*Agent{solo}, []*PooledAgent{repl}, pool, 15, 0, 0)
}

// TestPoolSingleMemberBitIdentical pins the degenerate pool (S=1):
// still bit-identical.
func TestPoolSingleMemberBitIdentical(t *testing.T) {
	pool := NewAgentPool()
	pa := pool.Attach(NewAgent(poolTestCfg(42)))
	solo := NewAgent(poolTestCfg(42))
	drive(t, []*Agent{solo}, []*PooledAgent{pa}, pool, 30, 0, 0)
}

// TestPoolDrainRestore is the churn round-trip: a pooled fleet is
// checkpointed, one member is drained, and restoring the survivors into
// a smaller pooled membership — and into plain solo agents — yields
// hex-float-identical continuations.
func TestPoolDrainRestore(t *testing.T) {
	const S = 3
	pool := NewAgentPool()
	var pooled []*PooledAgent
	for i := 0; i < S; i++ {
		pooled = append(pooled, pool.Attach(NewAgent(poolTestCfg(int64(200+i)))))
	}
	// Train past warmup so Adam moments, PER priorities and RNG
	// positions are all non-trivial, then checkpoint every member.
	drive(t, []*Agent{
		NewAgent(poolTestCfg(200)), NewAgent(poolTestCfg(201)), NewAgent(poolTestCfg(202)),
	}, pooled, pool, 25, 0, 0)
	snaps := make([][]byte, S)
	for i, pa := range pooled {
		snaps[i] = encodeAgent(pa.Agent)
	}

	// Drain member 1; survivors keep training.
	pooled[1].Close()
	if pool.Members() != S-1 {
		t.Fatalf("Members() = %d after drain", pool.Members())
	}

	// Restore the survivors' checkpoints into (a) a fresh smaller pooled
	// membership and (b) solo agents, and drive both: trajectories must
	// match bit-for-bit.
	pool2 := NewAgentPool()
	var restoredPool []*PooledAgent
	var restoredSolo []*Agent
	for _, i := range []int{0, 2} {
		pa := pool2.Attach(NewAgent(poolTestCfg(int64(200 + i))))
		if err := pa.Agent.DecodeState(checkpoint.NewDecoder(snaps[i])); err != nil {
			t.Fatalf("pooled restore %d: %v", i, err)
		}
		restoredPool = append(restoredPool, pa)
		sa := NewAgent(poolTestCfg(int64(200 + i)))
		if err := sa.DecodeState(checkpoint.NewDecoder(snaps[i])); err != nil {
			t.Fatalf("solo restore %d: %v", i, err)
		}
		restoredSolo = append(restoredSolo, sa)
	}
	drive(t, restoredSolo, restoredPool, pool2, 20, 25, 5)

	// The drained member detached with full state: it must continue
	// exactly like a solo agent restored from its snapshot.
	ref := NewAgent(poolTestCfg(201))
	if err := ref.DecodeState(checkpoint.NewDecoder(snaps[1])); err != nil {
		t.Fatalf("drained ref restore: %v", err)
	}
	drained := pooled[1].Agent
	if err := drained.DecodeState(checkpoint.NewDecoder(snaps[1])); err != nil {
		t.Fatalf("drained restore: %v", err)
	}
	for tt := 25; tt < 40; tt++ {
		st := testState(12, 1, tt)
		if fmt.Sprint(drained.SelectActions(st)) != fmt.Sprint(ref.SelectActions(st)) {
			t.Fatalf("t=%d: drained member diverged from solo reference", tt)
		}
	}
	if !bytes.Equal(encodeAgent(drained), encodeAgent(ref)) {
		t.Fatal("drained member checkpoint diverged from solo reference")
	}
}

// TestPoolAttachCloseKeepsParamStorage pins what membership means: Attach
// and Close move no parameter. Every panel backing array of both networks
// (neither holds a gradient) is the same memory before Attach, after it,
// after training and after Close, which
// is idempotent and leaves a handle that panics on use; an agent admitted
// after the drain trains like its solo twin.
func TestPoolAttachCloseKeepsParamStorage(t *testing.T) {
	agent := NewAgent(poolTestCfg(1))
	storage := func() []*float64 {
		var at []*float64
		for _, n := range []*Network{agent.online, agent.target} {
			for _, p := range n.Params() {
				if p.Grad != nil {
					t.Fatalf("%s holds a gradient", p.Name)
				}
				at = append(at, &p.Panels.Data[0])
			}
		}
		return at
	}
	before := storage()
	same := func(when string) {
		t.Helper()
		for i, ptr := range storage() {
			if ptr != before[i] {
				t.Fatalf("%s: backing array %d moved", when, i)
			}
		}
	}
	pool := NewAgentPool()
	a0 := pool.Attach(agent)
	same("after Attach")
	a1 := pool.Attach(NewAgent(poolTestCfg(2)))
	drive(t, []*Agent{NewAgent(poolTestCfg(1)), NewAgent(poolTestCfg(2))}, []*PooledAgent{a0, a1}, pool, 15, 0, 0)
	if agent.trainSteps == 0 {
		t.Fatal("the member never trained")
	}
	same("after training")
	a0.Close()
	a0.Close() // idempotent
	same("after Close")
	if pool.Members() != 1 {
		t.Fatalf("Members() = %d after Close", pool.Members())
	}

	a2 := pool.Attach(NewAgent(poolTestCfg(3)))
	drive(t, []*Agent{NewAgent(poolTestCfg(3))}, []*PooledAgent{a2}, pool, 15, 0, 0)

	defer func() {
		if recover() == nil {
			t.Fatal("use after close did not panic")
		}
	}()
	a0.QueueSelect(testState(12, 0, 0), true)
}

// closedPair attaches two agents, flushes them together and closes
// both. It returns the pool and a channel that receives once per agent
// the collector finalises; it is its own frame so that no slot of the
// caller's stack keeps a member alive.
//
//go:noinline
func closedPair(t *testing.T) (*AgentPool, <-chan struct{}) {
	pool := NewAgentPool()
	finalised := make(chan struct{}, 2) // one send per agent, never blocks the finaliser goroutine
	var pooled []*PooledAgent
	for seed := int64(1); seed <= 2; seed++ {
		a := NewAgent(poolTestCfg(seed))
		runtime.SetFinalizer(a, func(*Agent) { finalised <- struct{}{} })
		pooled = append(pooled, pool.Attach(a))
	}
	drive(t, []*Agent{NewAgent(poolTestCfg(1)), NewAgent(poolTestCfg(2))}, pooled, pool, 10, 0, 0)
	for _, pa := range pooled {
		pa.Close()
	}
	return pool, finalised
}

// TestPoolCloseReleasesMember pins the other half of what Close means: a
// closed member is reachable from nothing the pool owns. Every slot of
// the member list is empty up to capacity, and the agents are collected.
func TestPoolCloseReleasesMember(t *testing.T) {
	pool, finalised := closedPair(t)
	for i, m := range pool.members[:cap(pool.members)] {
		if m != nil {
			t.Errorf("members[%d] (len %d) still holds a closed member", i, len(pool.members))
		}
	}
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-finalised:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 2 closed agents collected: the pool still reaches the rest", got)
		}
	}

	// The pool goes on serving new members.
	a, b := pool.Attach(NewAgent(poolTestCfg(3))), pool.Attach(NewAgent(poolTestCfg(4)))
	drive(t, []*Agent{NewAgent(poolTestCfg(3)), NewAgent(poolTestCfg(4))}, []*PooledAgent{a, b}, pool, 10, 0, 0)
}
