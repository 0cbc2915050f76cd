package baselines

import (
	"testing"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

func cores18() []int {
	out := make([]int, 18)
	for i := range out {
		out[i] = i
	}
	return out
}

func obs(p99s ...float64) ctrl.Observation {
	o := ctrl.Observation{PowerW: 60}
	for _, p := range p99s {
		o.Services = append(o.Services, ctrl.ServiceObs{
			P99Ms: p, QoSTargetMs: 10, MeasuredRPS: 500, MaxLoadRPS: 1000,
		})
	}
	return o
}

func TestStaticSingle(t *testing.T) {
	s := NewStatic(cores18(), 1)
	if s.Name() != "static" {
		t.Fatal("name")
	}
	asg := s.Decide(obs(5))
	if len(asg.PerService[0].Cores) != 18 || asg.PerService[0].FreqGHz != platform.MaxFreqGHz {
		t.Fatalf("static single = %+v", asg.PerService[0])
	}
	if asg.IdleFreqGHz != platform.MaxFreqGHz {
		t.Fatal("static leaves all cores at max DVFS")
	}
}

func TestStaticEvenSplit(t *testing.T) {
	s := NewStatic(cores18(), 2)
	asg := s.Decide(obs(5, 5))
	if len(asg.PerService[0].Cores) != 9 || len(asg.PerService[1].Cores) != 9 {
		t.Fatalf("split = %d/%d", len(asg.PerService[0].Cores), len(asg.PerService[1].Cores))
	}
	// Disjoint.
	seen := map[int]bool{}
	for _, a := range asg.PerService {
		for _, c := range a.Cores {
			if seen[c] {
				t.Fatal("static split must be disjoint")
			}
			seen[c] = true
		}
	}
}

func TestStaticValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic(nil, 1)
}

func TestHipsterActionLadderOrdered(t *testing.T) {
	h := NewHipster(DefaultHipsterConfig(), cores18())
	if h.Name() != "hipster" {
		t.Fatal("name")
	}
	for i := 1; i < len(h.actions); i++ {
		if h.actions[i].powerProxy() < h.actions[i-1].powerProxy() {
			t.Fatal("ladder must be sorted by power")
		}
	}
	if len(h.actions) != 18*platform.NumFreqSteps {
		t.Fatalf("actions = %d", len(h.actions))
	}
	// Paper: 25 buckets at 4%, 162 configs on 18 cores × 9 states.
	if h.QTableEntries() != 26*162 {
		t.Fatalf("QTableEntries = %d", h.QTableEntries())
	}
}

func TestHipsterHeuristicGrowsOnPressure(t *testing.T) {
	cfg := DefaultHipsterConfig()
	cfg.LearnPhaseS = 1000
	h := NewHipster(cfg, cores18())
	// Starts generous; heavy slack lets it walk down the ladder.
	before := h.cur
	for i := 0; i < 50; i++ {
		h.Decide(obs(1)) // tardiness 0.1 → reclaim
	}
	if h.cur >= before {
		t.Fatal("slack must walk the ladder down")
	}
	down := h.cur
	// Violation jumps it back up aggressively.
	h.Decide(obs(50))
	if h.cur <= down {
		t.Fatal("violation must jump the ladder up")
	}
}

func TestHipsterAssignmentShape(t *testing.T) {
	h := NewHipster(DefaultHipsterConfig(), cores18())
	asg := h.Decide(obs(5))
	if len(asg.PerService) != 1 {
		t.Fatal("hipster manages one service")
	}
	a := asg.PerService[0]
	if len(a.Cores) < 1 || len(a.Cores) > 18 {
		t.Fatalf("cores = %v", a.Cores)
	}
	if asg.IdleFreqGHz != platform.MinFreqGHz {
		t.Fatal("idle DVFS")
	}
}

func TestHipsterBucketOf(t *testing.T) {
	h := NewHipster(DefaultHipsterConfig(), cores18())
	if b := h.bucketOf(ctrl.ServiceObs{MeasuredRPS: 480, MaxLoadRPS: 1000}); b != 12 {
		t.Fatalf("bucket(48%%) = %d", b)
	}
	if b := h.bucketOf(ctrl.ServiceObs{MeasuredRPS: 5000, MaxLoadRPS: 1000}); b != h.numBuckets()-1 {
		t.Fatal("overload clamps to last bucket")
	}
	if b := h.bucketOf(ctrl.ServiceObs{}); b != 0 {
		t.Fatal("zero max load")
	}
}

func TestHipsterQLearningUpdates(t *testing.T) {
	cfg := DefaultHipsterConfig()
	cfg.LearnPhaseS = 5
	cfg.Epsilon = 0
	h := NewHipster(cfg, cores18())
	for i := 0; i < 30; i++ {
		h.Decide(obs(5))
	}
	visited := 0
	for b := range h.visited {
		for a := range h.visited[b] {
			if h.visited[b][a] {
				visited++
			}
		}
	}
	if visited == 0 {
		t.Fatal("Q-table never updated")
	}
}

func TestHeraclesGrowsOnLatencyPressure(t *testing.T) {
	cfg := DefaultHeraclesConfig(120)
	h := NewHeracles(cfg, cores18())
	// Drain down first with comfortable latency.
	for i := 0; i < 40; i++ {
		h.Decide(heraclesObs(2, 0.1, 60))
	}
	low := h.allocated
	if low >= 18 {
		t.Fatal("comfortable latency must release cores")
	}
	// Pressure at 85% of target grows the allocation.
	before := h.allocated
	for i := 0; i < 10; i++ {
		h.Decide(heraclesObs(8.6, 0.1, 60))
	}
	if h.allocated <= before {
		t.Fatal("latency pressure must add cores")
	}
}

func heraclesObs(p99, llcMiss, powerW float64) ctrl.Observation {
	var s pmc.Sample
	s[pmc.LLCMisses] = llcMiss
	return ctrl.Observation{
		PowerW: powerW,
		Services: []ctrl.ServiceObs{{
			P99Ms: p99, QoSTargetMs: 10, MeasuredRPS: 300, MaxLoadRPS: 1000, NormPMCs: s,
		}},
	}
}

func TestHeraclesViolationLockout(t *testing.T) {
	cfg := DefaultHeraclesConfig(120)
	h := NewHeracles(cfg, cores18())
	// Shrink a bit first.
	for i := 0; i < 40; i++ {
		h.Decide(heraclesObs(2, 0.1, 60))
	}
	// A violation at a main-controller tick allocates everything...
	for h.step%cfg.MainPeriodS != 0 {
		h.Decide(heraclesObs(2, 0.1, 60))
	}
	asg := h.Decide(heraclesObs(50, 0.1, 60))
	if len(asg.PerService[0].Cores) != 18 {
		t.Fatalf("violation must trigger full allocation, got %d cores", len(asg.PerService[0].Cores))
	}
	// ... and holds it for the lockout period despite comfort.
	for i := 0; i < 100; i++ {
		asg = h.Decide(heraclesObs(1, 0.1, 60))
	}
	if len(asg.PerService[0].Cores) != 18 {
		t.Fatal("lockout must hold the full allocation")
	}
}

func TestHeraclesPowerController(t *testing.T) {
	cfg := DefaultHeraclesConfig(100)
	h := NewHeracles(cfg, cores18())
	// Power at the cap forces DVFS down.
	h.Decide(heraclesObs(8.6, 0.1, 95))
	h.Decide(heraclesObs(8.6, 0.1, 95))
	if h.freqStep >= platform.NumFreqSteps-1 {
		t.Fatal("power cap must lower DVFS")
	}
	// Comfortable power restores it.
	for i := 0; i < 40; i++ {
		h.Decide(heraclesObs(8.6, 0.1, 30))
	}
	if h.freqStep != platform.NumFreqSteps-1 {
		t.Fatalf("low power must restore DVFS, step=%d", h.freqStep)
	}
}

func TestHeraclesMemoryBandwidthGrowth(t *testing.T) {
	cfg := DefaultHeraclesConfig(120)
	h := NewHeracles(cfg, cores18())
	for i := 0; i < 20; i++ {
		h.Decide(heraclesObs(2, 0.1, 60))
	}
	before := h.allocated
	// A jump in LLC misses ("memory bandwidth increased") adds a core
	// even though latency is comfortable.
	h.Decide(heraclesObs(2, 0.5, 60))
	h.Decide(heraclesObs(2, 0.5, 60))
	if h.allocated <= before-2 {
		t.Fatalf("bandwidth growth should not keep shrinking: %d vs %d", h.allocated, before)
	}
}

func TestPartiesUpsizesWorstService(t *testing.T) {
	p := NewParties(DefaultPartiesConfig(), cores18(), 2)
	if p.Name() != "parties" {
		t.Fatal("name")
	}
	start := p.alloc[1]
	// Service 1 at the edge, service 0 comfortable; free a core first
	// by reclaiming from service 0.
	for i := 0; i < 30; i++ {
		p.Decide(obs(1, 9.6))
	}
	if p.alloc[1] <= start && p.freqStep[1] < platform.NumFreqSteps-1 {
		t.Fatalf("pressured service should have been upsized: %+v", p.alloc)
	}
	if p.Decisions() == 0 {
		t.Fatal("decisions counter")
	}
}

func TestPartiesReclaimsFromSlack(t *testing.T) {
	p := NewParties(DefaultPartiesConfig(), cores18(), 2)
	for i := 0; i < 60; i++ {
		p.Decide(obs(1, 1)) // everyone has huge slack
	}
	if p.alloc[0]+p.alloc[1] >= 18 && p.freqStep[0] == platform.NumFreqSteps-1 {
		t.Fatal("slack must lead to reclaiming")
	}
}

func TestPartiesRevertOnViolation(t *testing.T) {
	cfg := DefaultPartiesConfig()
	cfg.PeriodS = 1
	p := NewParties(cfg, cores18(), 1)
	// Reclaim once.
	p.Decide(obs(1))
	if !p.last.valid || p.last.delta != -1 {
		t.Fatalf("expected a reclaim, got %+v", p.last)
	}
	sv, res := p.last.svc, p.last.resource
	valBefore := p.resourceValue(sv, res)
	// Violation right after → revert and block.
	p.Decide(obs(50))
	if p.resourceValue(sv, res) != valBefore+1 {
		t.Fatal("violation must revert the reclaim")
	}
	if p.blocked[sv][res] <= p.step {
		t.Fatal("reverted resource must be blocked for a while")
	}
}

// A core migrated between services (empty pool, DVFS already at the
// top) must go back to the donor *from the recipient* when the donor
// then violates. Reverting only the donor's side left sum(alloc) above
// the managed cores and assignment() sliced past them.
func TestPartiesRevertsMigrationSymmetrically(t *testing.T) {
	cfg := DefaultPartiesConfig()
	cfg.PeriodS = 1
	p := NewParties(cfg, cores18(), 2)
	allocated := func() int { return p.alloc[0] + p.alloc[1] }

	// Service 1 at the edge, service 0 idle, nothing free to grow into:
	// one core migrates 0 → 1.
	p.Decide(obs(1, 9.6))
	if !p.last.migrated || p.last.svc != 0 || p.last.to != 1 || p.alloc[0] != 8 || p.alloc[1] != 10 {
		t.Fatalf("expected a 0→1 core migration, got last %+v alloc %v", p.last, p.alloc)
	}
	// The donor now violates: the migration is undone on both sides.
	asg := p.Decide(obs(50, 9.6))
	if p.alloc[0] != 9 || p.alloc[1] != 9 {
		t.Fatalf("revert left alloc %v, want [9 9]", p.alloc)
	}
	if n := len(asg.PerService[0].Cores) + len(asg.PerService[1].Cores); n != 18 {
		t.Fatalf("assignment hands out %d cores", n)
	}
	if p.blocked[0][resCores] <= p.step {
		t.Fatal("the donor's cores must be barred from reclaiming after the revert")
	}

	// Whatever the observations, the allocation never exceeds the
	// managed cores (Decide panics in assignment() if it does).
	seq := [][2]float64{{1, 9.6}, {50, 9.6}, {1, 50}, {50, 1}, {9.7, 1}, {1, 1}, {50, 50}, {1, 9.9}, {11, 9.9}}
	for i := 0; i < 400; i++ {
		o := seq[(i*7+i/3)%len(seq)]
		p.Decide(obs(o[0], o[1]))
		if allocated() > 18 {
			t.Fatalf("step %d: %d cores allocated of 18 (alloc %v)", i, allocated(), p.alloc)
		}
	}
}

// resourceValue helps the revert test read the adjusted knob.
func (p *Parties) resourceValue(svc int, res partiesResource) int {
	if res == resCores {
		return p.alloc[svc]
	}
	return p.freqStep[svc]
}

func TestPartiesAssignmentContiguousDisjoint(t *testing.T) {
	p := NewParties(DefaultPartiesConfig(), cores18(), 3)
	asg := p.Decide(obs(5, 5, 5))
	seen := map[int]bool{}
	for _, a := range asg.PerService {
		for _, c := range a.Cores {
			if seen[c] {
				t.Fatal("overlapping cores")
			}
			seen[c] = true
		}
	}
	if asg.IdleFreqGHz != platform.MaxFreqGHz {
		t.Fatal("PARTIES leaves reclaimed cores hot for batch work")
	}
}

func TestPartiesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewParties(DefaultPartiesConfig(), cores18(), 0)
}
