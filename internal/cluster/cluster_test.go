package cluster

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// testCtl is a cheap deterministic controller: every service on every
// managed core at max frequency. It counts Decide calls and checkpoints
// the count, so warm-failover tests can prove controller state survived
// a node loss.
type testCtl struct {
	srv   *sim.Server
	steps int
}

func (t *testCtl) Name() string { return "test-static" }
func (t *testCtl) Decide(ctrl.Observation) sim.Assignment {
	t.steps++
	lo, hi := t.srv.FreqRange()
	return ctrl.SafeAssignment(t.srv.NumServices(), t.srv.ManagedCores(), lo, hi)
}
func (t *testCtl) CheckpointName() string                  { return "test-ctl" }
func (t *testCtl) EncodeState(e *checkpoint.Encoder)       { e.Int(t.steps) }
func (t *testCtl) DecodeState(d *checkpoint.Decoder) error { t.steps = d.Int(); return d.Err() }

func testFactory(srv *sim.Server, _ []ReplicaSpec, _ int64) (ctrl.Controller, []checkpoint.Checkpointable) {
	ctl := &testCtl{srv: srv}
	return ctl, []checkpoint.Checkpointable{ctl}
}

// lcSpec builds an LC replica spec with a target generous enough that
// violations come only from dark intervals, keeping accounting exact.
func lcSpec(servicename string, prio int) ReplicaSpec {
	return ReplicaSpec{Service: servicename, LoadFrac: 0.3, QoSTargetMs: 1000, Class: LC, Priority: prio}
}

func batchSpec(servicename string) ReplicaSpec {
	return ReplicaSpec{Service: servicename, LoadFrac: 0.3, QoSTargetMs: 1000, Class: Batch, Priority: 5}
}

func mustAdmit(t *testing.T, c *Coordinator, specs ...ReplicaSpec) {
	t.Helper()
	for i, sp := range specs {
		id, err := c.Admit(sp)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("admit %d: got ID %d", i, id)
		}
	}
}

func stepN(c *Coordinator, n int) {
	for i := 0; i < n; i++ {
		c.Step()
	}
}

// checkTicks asserts the carried-accounting invariant for every replica:
// exactly one tick per interval alive, Ticks == (DeadStep or now) − AdmitStep.
func checkTicks(t *testing.T, c *Coordinator) {
	t.Helper()
	now := c.Clock()
	for _, r := range c.Replicas() {
		end := now
		if r.DeadStep >= 0 {
			end = r.DeadStep
		}
		if got, want := r.Ticks(), end-r.AdmitStep; got != want {
			t.Errorf("replica %d: Ticks=%d (up %d dark %d), want %d", r.ID, got, r.Intervals, r.DarkIntervals, want)
		}
		if r.Violations < r.DarkIntervals || r.Violations > r.Ticks() {
			t.Errorf("replica %d: violations %d outside [dark %d, ticks %d]", r.ID, r.Violations, r.DarkIntervals, r.Ticks())
		}
	}
}

func TestAdmissionValidation(t *testing.T) {
	c, err := New(Config{Nodes: 1, Factory: testFactory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(ReplicaSpec{Service: "nope", LoadFrac: 0.3, QoSTargetMs: 5}); err == nil {
		t.Error("unknown service admitted")
	}
	if _, err := c.Admit(ReplicaSpec{Service: "memcached", LoadFrac: 0, QoSTargetMs: 5}); err == nil {
		t.Error("zero load admitted")
	}
	if _, err := c.Admit(ReplicaSpec{Service: "memcached", LoadFrac: 0.3, QoSTargetMs: -1}); err == nil {
		t.Error("negative QoS target admitted")
	}
	if _, err := c.Admit(lcSpec("memcached", 0)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSteadyStateFleet(t *testing.T) {
	c, err := New(Config{Nodes: 3, NodeCapacity: 2, Seed: 42, Factory: testFactory})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 1), lcSpec("xapian", 0), batchSpec("masstree"), lcSpec("img-dnn", 2))
	stepN(c, 30)

	s := c.Summary()
	if s.Time != 30 || s.EnergyJ <= 0 {
		t.Fatalf("summary time/energy: %d %.1f", s.Time, s.EnergyJ)
	}
	hosted := 0
	for _, n := range s.Nodes {
		if n.State != "up" || !n.Lease {
			t.Errorf("node %d not healthy: %+v", n.ID, n)
		}
		if len(n.Replicas) > 2 {
			t.Errorf("node %d over capacity: %v", n.ID, n.Replicas)
		}
		hosted += len(n.Replicas)
	}
	if hosted != 4 {
		t.Fatalf("hosted %d replicas, want 4", hosted)
	}
	for _, r := range s.Replicas {
		if r.State != "running" {
			t.Errorf("replica %d state %s", r.ID, r.State)
		}
		if r.Migrations != 0 || r.DarkIntervals != 1 { // one warm-up interval at placement
			t.Errorf("replica %d: migrations %d dark %d", r.ID, r.Migrations, r.DarkIntervals)
		}
	}
	if s.LeaseExpiries != 0 || s.DeadLetters != 0 || s.ShedEpisodes != 0 {
		t.Errorf("unexpected fault counters in steady state: %+v", s)
	}
	checkTicks(t, c)

	txt := s.StatusText()
	for _, want := range []string{"fleet t=30", "node 0", "replica 3", "running"} {
		if !strings.Contains(txt, want) {
			t.Errorf("status text missing %q:\n%s", want, txt)
		}
	}
	scrape := c.Metrics().Render()
	for _, want := range []string{
		`twig_cluster_intervals_total 30`,
		`twig_cluster_nodes{state="up"} 3`,
		`twig_cluster_replicas{state="running"} 4`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestWarmFailoverPreservesControllerState(t *testing.T) {
	// Node 0 crashes at t=20. Its replica group (replica 0 alone) was
	// snapshotted at t=19, the last interval of a snapshot period; node
	// 2 is empty, so at lease expiry (t=19+leaseTTL) the estate
	// warm-restores there — including the controller's Decide counter,
	// proving learning state survived the node loss.
	const crashAt, steps = 2 * snapshotEvery, 30
	c, err := New(Config{
		Nodes: 3, NodeCapacity: 2, Seed: 7, Factory: testFactory,
		Scenario: faults.ClusterScenario{Name: "one-crash", CrashPeriodS: crashAt, CrashOfflineS: steps - crashAt},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	stepN(c, steps)

	r0 := c.Replicas()[0]
	if r0.State != Running || r0.Node != 2 {
		t.Fatalf("replica 0: state %v node %d, want running on node 2", r0.State, r0.Node)
	}
	if r0.Migrations != 1 || r0.WarmRestores != 1 {
		t.Fatalf("replica 0: migrations %d warm %d, want 1/1", r0.Migrations, r0.WarmRestores)
	}
	// The snapshot carried crashAt Decide calls (t<crashAt); the restored
	// node decides from lease expiry to the end. A cold restart would
	// show only the latter.
	expiry := crashAt - 1 + leaseTTL
	ctl := c.nodes[2].world[1].(*testCtl) // world[0] is the simulator
	if want := crashAt + steps - expiry; ctl.steps != want {
		t.Fatalf("restored controller Decide count = %d, want %d (snapshot state lost?)", ctl.steps, want)
	}
	if c.ctr.WarmRestores != 1 || c.ctr.LeaseExpiries != 1 {
		t.Fatalf("counters: warm %d expiries %d", c.ctr.WarmRestores, c.ctr.LeaseExpiries)
	}
	checkTicks(t, c)
}

// A warm failover hands the snapshot's storage on rather than dropping
// it: once the estate is restored the storage is the spare, and a node
// snapshot trades its own storage for the spare when the spare is the
// larger, so the fleet grows no new buffer and holds no extra one.
func TestWarmRestoreRecyclesSnapshotStorage(t *testing.T) {
	const crashAt, steps = 2 * snapshotEvery, 30
	c, err := New(Config{
		Nodes: 3, NodeCapacity: 2, Seed: 7, Factory: testFactory,
		Scenario: faults.ClusterScenario{Name: "one-crash", CrashPeriodS: crashAt, CrashOfflineS: steps - crashAt},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	stepN(c, crashAt)
	estate := &c.nodes[0].snapshot[0] // cut at t=crashAt-1
	for c.ctr.WarmRestores == 0 && c.Clock() < steps-1 {
		c.Step()
	}
	if c.ctr.WarmRestores != 1 || cap(c.spare) == 0 || &c.spare[:1][0] != estate {
		t.Fatalf("after %d warm restores the spare (cap %d) is not the estate's storage", c.ctr.WarmRestores, cap(c.spare))
	}
	stepN(c, steps-c.Clock())
	n := c.nodes[2] // the restore target, snapshotted at t=steps-1
	if len(n.snapshot) == 0 {
		t.Fatal("the restored node has no snapshot")
	}

	own := &n.snapshot[0]
	c.spare = make([]byte, 0, 2*cap(n.snapshot))
	larger := &c.spare[:1][0]
	c.takeSnapshot(n)
	if &n.snapshot[0] != larger || &c.spare[:1][0] != own {
		t.Fatal("a snapshot did not trade its storage for the larger spare")
	}
	c.spare = c.spare[:0:1]
	c.takeSnapshot(n)
	if &n.snapshot[0] != larger || cap(c.spare) != 1 {
		t.Fatal("a snapshot traded its storage for a smaller spare")
	}
}

func TestPartitionFencesAndColdFailover(t *testing.T) {
	// Node 1 is partitioned from t=10 until the estate grace has lapsed.
	// Coordinator lease expiry and node self-fence land in the same
	// interval (fence = 9+leaseTTL), so the replica is never served by
	// two nodes; node 0 is busy, so when the estate grace lapses the
	// replica restarts cold on node 0.
	const partAt = 10
	const fence = partAt - 1 + leaseTTL
	const lapse = fence + estateGraceS
	c, err := New(Config{
		Nodes: 2, NodeCapacity: 2, Seed: 11, Factory: testFactory,
		Scenario: faults.ClusterScenario{Name: "one-partition", PartitionPeriodS: partAt, PartitionOfflineS: lapse - partAt + 1, QuietAfterS: partAt + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	for c.Clock() <= fence {
		c.Step()
	}
	if n := c.nodes[1]; !n.fenced || n.srv != nil {
		t.Fatalf("node 1 not fenced after TTL without coordinator (fenced=%v srv=%v)", n.fenced, n.srv != nil)
	}
	if got := c.Replicas()[1].State; got != Migrating {
		t.Fatalf("replica 1 state %v after lease expiry, want migrating", got)
	}
	stepN(c, lapse+4-c.Clock())

	r1 := c.Replicas()[1]
	if r1.State != Running || r1.Node != 0 {
		t.Fatalf("replica 1: state %v node %d, want running on node 0", r1.State, r1.Node)
	}
	if r1.Migrations != 1 || r1.WarmRestores != 0 {
		t.Fatalf("replica 1: migrations %d warm %d, want cold failover", r1.Migrations, r1.WarmRestores)
	}
	// Served until the fence except the warm-up (t=0), dark from the
	// fence through the lapse while migrating through the estate grace,
	// served again for the last three intervals.
	if want := 1 + lapse - fence + 1; r1.DarkIntervals != want {
		t.Fatalf("replica 1 dark intervals = %d, want %d", r1.DarkIntervals, want)
	}
	if c.ctr.LeaseExpiries != 1 || c.ctr.ColdRestores != 1 {
		t.Fatalf("counters: expiries %d cold %d", c.ctr.LeaseExpiries, c.ctr.ColdRestores)
	}
	if n := c.nodes[1]; n.fenced || !n.coordLive || len(n.replicas) != 0 {
		t.Fatalf("node 1 should have rejoined empty: fenced=%v lease=%v replicas=%v", n.fenced, n.coordLive, n.replicas)
	}
	checkTicks(t, c)
}

func TestDegradationShedsByClassThenPriority(t *testing.T) {
	// Node 0 crashes t=15..19; from its lease expiry (14+leaseTTL) it
	// halves capacity: 4 live replicas over 2 slots. The batch replica
	// sheds first, then the lowest-priority LC replica; both are
	// restored when the node rejoins at t=20.
	const crashAt, back = 15, 20
	const expiry = crashAt - 1 + leaseTTL
	c, err := New(Config{
		Nodes: 2, NodeCapacity: 2, Seed: 5, Factory: testFactory,
		Scenario: faults.ClusterScenario{Name: "one-crash", CrashPeriodS: crashAt, CrashOfflineS: back - crashAt, QuietAfterS: crashAt + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c,
		lcSpec("memcached", 1), // replica 0 → node 0
		lcSpec("xapian", 0),    // replica 1 → node 1, lowest LC priority
		batchSpec("masstree"),  // replica 2 → node 0, batch
		lcSpec("img-dnn", 2),   // replica 3 → node 1
	)
	for c.Clock() <= expiry {
		c.Step()
	}
	rs := c.Replicas()
	if !rs[2].Shed || !rs[1].Shed {
		t.Fatalf("want batch replica 2 and LC-prio-0 replica 1 shed; got shed flags %v %v %v %v",
			rs[0].Shed, rs[1].Shed, rs[2].Shed, rs[3].Shed)
	}
	if rs[0].Shed || rs[3].Shed {
		t.Fatalf("higher-priority LC replicas shed out of order")
	}
	// Placement ranks LC priority first, so node 0 hosted replicas 3 and
	// 1: the shed LC replica's host died (it stays migrating) while the
	// batch replica is evicted from the surviving node.
	if rs[1].State != Migrating {
		t.Errorf("shed replica 1 (host dead) should stay migrating, got %v", rs[1].State)
	}
	if rs[2].State != Pending {
		t.Errorf("shed replica 2 should be evicted to pending, got %v", rs[2].State)
	}
	stepN(c, 28-c.Clock())

	for _, r := range c.Replicas() {
		if r.State != Running || r.Shed {
			t.Errorf("replica %d not restored after capacity returned: %v shed=%v", r.ID, r.State, r.Shed)
		}
	}
	if c.ctr.ShedEpisodes != 2 {
		t.Errorf("shed episodes = %d, want 2", c.ctr.ShedEpisodes)
	}
	// Both shed replicas sat dark from the lease expiry to t=19.
	if want := back - expiry; c.ctr.ShedBatch != want || c.ctr.ShedLC != want {
		t.Errorf("shed intervals lc=%d batch=%d, want %d/%d", c.ctr.ShedLC, c.ctr.ShedBatch, want, want)
	}
	checkTicks(t, c)
}

func TestBackoffScheduleAndDeadLetter(t *testing.T) {
	// Static partitioning pins replica 0 to node 0, which crashes at
	// t=10 and never returns. From lease expiry (9+leaseTTL), placement
	// attempts follow the deterministic backoff schedule (backoffBase,
	// doubling: t=12, 14, 18, 26) until the retry budget (3) is exhausted
	// and the replica dead-letters with the failure recorded.
	const crashAt, retries = 10, 3
	c, err := New(Config{
		Nodes: 2, NodeCapacity: 2, Seed: 3, Factory: testFactory,
		MaxRetries: retries, PinReplicas: true,
		Scenario: faults.ClusterScenario{Name: "perma-crash", CrashPeriodS: crashAt, CrashOfflineS: 100, QuietAfterS: crashAt + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	stepN(c, 40)

	schedule := []int{crashAt - 1 + leaseTTL}
	for i := 0; i < retries; i++ {
		schedule = append(schedule, schedule[i]+backoffBase<<i)
	}
	dead := schedule[retries]
	r0 := c.Replicas()[0]
	if r0.State != DeadLetter {
		t.Fatalf("replica 0 state %v, want dead-letter", r0.State)
	}
	if r0.DeadStep != dead {
		t.Fatalf("dead-lettered at t=%d, want %d (backoff schedule %v)", r0.DeadStep, dead, schedule)
	}
	if !strings.Contains(r0.Reason, "placement retries exhausted (4 attempts") {
		t.Fatalf("dead-letter reason %q", r0.Reason)
	}
	if r0.Ticks() != dead { // frozen at DeadStep − AdmitStep
		t.Fatalf("dead replica ticks %d, want %d", r0.Ticks(), dead)
	}
	if c.ctr.DeadLetters != 1 || c.ctr.PlacementFails != 4 || c.ctr.WarmRestores != 0 {
		t.Fatalf("counters: dead %d fails %d warm %d", c.ctr.DeadLetters, c.ctr.PlacementFails, c.ctr.WarmRestores)
	}
	// The healthy pinned replica is untouched.
	if r1 := c.Replicas()[1]; r1.State != Running || r1.Node != 1 || r1.Migrations != 0 {
		t.Fatalf("replica 1 disturbed: %+v", r1)
	}
	// The dead letter is visible in status with its reason.
	txt := c.Summary().StatusText()
	if !strings.Contains(txt, "dead-letter") || !strings.Contains(txt, "retries exhausted") {
		t.Errorf("status text does not surface the dead letter:\n%s", txt)
	}
	checkTicks(t, c)
}

func TestRestartWithinLeaseDetectedByIncarnation(t *testing.T) {
	// Node 0 crashes at t=10 and is back before leaseTTL intervals pass,
	// so the lease never expires. The heartbeat incarnation mismatch
	// still triggers failover: without it the coordinator would keep
	// routing to a node that lost its world.
	c, err := New(Config{
		Nodes: 2, NodeCapacity: 2, Seed: 9, Factory: testFactory,
		Scenario: faults.ClusterScenario{Name: "blip", CrashPeriodS: 10, CrashOfflineS: leaseTTL - 1, QuietAfterS: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	stepN(c, 25)

	if c.ctr.RestartsSeen != 1 || c.ctr.LeaseExpiries != 0 {
		t.Fatalf("restarts %d expiries %d, want 1/0", c.ctr.RestartsSeen, c.ctr.LeaseExpiries)
	}
	r0 := c.Replicas()[0]
	if r0.State != Running || r0.Migrations != 1 {
		t.Fatalf("replica 0 not failed over after blip: state %v migrations %d", r0.State, r0.Migrations)
	}
	// The pre-crash snapshot lives in the coordinator, so even a blip
	// restores the replica warm.
	if r0.WarmRestores != 1 {
		t.Errorf("blip failover warm restores = %d, want 1", r0.WarmRestores)
	}
	checkTicks(t, c)
}

// chaosConfig is the shared fixture for the determinism, resume and
// invariant tests: periodic and random crashes plus partitions, then a
// quiet tail long enough for every placement (and the slowest backoff)
// to resolve.
func chaosConfig(seed int64) Config {
	return Config{
		Nodes: 3, NodeCapacity: 2, Seed: seed, Factory: testFactory,
		Scenario: faults.ClusterScenario{
			Name:         "test-chaos",
			CrashPeriodS: 40, CrashOfflineS: 10,
			PartitionPeriodS: 35, PartitionOfflineS: 8,
			CrashPerKs: 15, PartitionPerKs: 15, MaxOutageS: 12,
			QuietAfterS: 120,
		},
	}
}

func admitChaosMix(t *testing.T, c *Coordinator) {
	mustAdmit(t, c,
		lcSpec("memcached", 2),
		lcSpec("xapian", 0),
		batchSpec("masstree"),
		lcSpec("img-dnn", 1),
	)
}

const chaosSteps = 220

func TestChaosSweepDeterministicAndInvariantClean(t *testing.T) {
	a, err := New(chaosConfig(1234))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(chaosConfig(1234))
	if err != nil {
		t.Fatal(err)
	}
	admitChaosMix(t, a)
	admitChaosMix(t, b)
	stepN(a, chaosSteps)
	stepN(b, chaosSteps)

	// Same seed → byte-identical fleet state and identical scrape.
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("two runs with identical config/seed diverged")
	}
	if a.Metrics().Render() != b.Metrics().Render() {
		t.Fatal("metric renders diverged")
	}
	if !reflect.DeepEqual(a.Summary(), b.Summary()) {
		t.Fatal("summaries diverged")
	}

	// The sweep actually exercised the fault machinery.
	s := a.Summary()
	if s.EventsInjected == 0 || s.LeaseExpiries == 0 || s.Migrations == 0 {
		t.Fatalf("chaos sweep too quiet: %+v", s)
	}

	// End-of-sweep invariant: after the quiet tail every replica is
	// either running on a live leased node that lists it, or terminally
	// dead-lettered with the reason recorded.
	for _, r := range a.Replicas() {
		switch r.State {
		case Running:
			if r.Node < 0 {
				t.Errorf("replica %d running nowhere", r.ID)
				continue
			}
			n := a.nodes[r.Node]
			if !n.alive || !n.coordLive || n.fenced || slices.Index(n.replicas, r.ID) < 0 {
				t.Errorf("replica %d running on unhealthy node %d", r.ID, r.Node)
			}
		case DeadLetter:
			if r.Reason == "" || r.DeadStep < 0 {
				t.Errorf("replica %d dead-lettered without reason", r.ID)
			}
		default:
			t.Errorf("replica %d still %v at sweep end", r.ID, r.State)
		}
		if r.Shed {
			t.Errorf("replica %d still shed at sweep end", r.ID)
		}
	}
	checkTicks(t, a)
}

func TestFleetCheckpointResumeBitIdentical(t *testing.T) {
	storeA, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := chaosConfig(99)
	cfgA.Store = storeA
	cfgA.CheckpointEvery = 50
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	admitChaosMix(t, a)
	stepN(a, chaosSteps)
	want := a.Marshal()

	// Run a second fleet to t=130, "crash" it, and restore from its
	// newest durable checkpoint (cut at t=100).
	storeB, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := chaosConfig(99)
	cfgB.Store = storeB
	cfgB.CheckpointEvery = 50
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	admitChaosMix(t, b)
	stepN(b, 130)
	if err := b.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	r, seq, err := RestoreFleet(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 100 || r.Clock() != 100 {
		t.Fatalf("restored at seq %d clock %d, want 100", seq, r.Clock())
	}
	stepN(r, chaosSteps-100)
	if !bytes.Equal(r.Marshal(), want) {
		t.Fatal("resumed fleet diverged from the uninterrupted run")
	}
	if r.Metrics().Render() != a.Metrics().Render() {
		t.Fatal("resumed fleet scrape diverged from the uninterrupted run")
	}
	checkTicks(t, r)
}

func TestDeadLetterSurvivesCheckpointRoundTrip(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes: 2, NodeCapacity: 2, Seed: 3, Factory: testFactory,
		MaxRetries: 3, PinReplicas: true,
		Store: store, CheckpointEvery: 40,
		Scenario: faults.ClusterScenario{Name: "perma-crash", CrashPeriodS: 10, CrashOfflineS: 100, QuietAfterS: 11},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 0))
	stepN(c, 40)
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	before := c.Replicas()[0]
	if before.State != DeadLetter {
		t.Fatalf("precondition: replica 0 is %v, want dead-letter", before.State)
	}

	r, _, err := RestoreFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := r.Replicas()[0]
	if after.State != DeadLetter || after.Reason != before.Reason || after.DeadStep != before.DeadStep {
		t.Fatalf("dead letter mutated by round trip: before %+v after %+v", before, after)
	}
	if after.Ticks() != before.Ticks() || after.Violations != before.Violations {
		t.Fatalf("accounting mutated by round trip")
	}
	if !strings.Contains(r.Summary().StatusText(), "retries exhausted") {
		t.Error("restored status text lost the dead-letter reason")
	}
}

// TestHeterogeneousFleet runs a cloud-edge-shaped fleet: node 0 on the
// paper SKU, nodes 1–2 on a capped 10-core edge SKU with a latency tax.
// Placement must land worlds on the per-node platforms and steps must
// run clean on all of them.
func TestHeterogeneousFleet(t *testing.T) {
	edge := sim.DefaultConfig()
	edge.Platform = platform.Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	edge.ManagedSocket = 0
	edge.LatencyTaxMs = 1
	sims := []sim.Config{sim.DefaultConfig(), edge, edge}
	c, err := New(Config{Nodes: 3, NodeCapacity: 2, Seed: 21, Factory: testFactory, NodeSims: sims})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, c, lcSpec("memcached", 0), lcSpec("xapian", 1), lcSpec("masstree", 2))
	stepN(c, 20)
	placed := 0
	for i, n := range c.nodes {
		if n.srv == nil {
			continue
		}
		placed++
		want := sims[i].Platform
		if want.Sockets == 0 {
			want = platform.DefaultConfig()
		}
		got := n.srv.Platform().Config()
		if got.Sockets != want.Sockets || got.CoresPerSocket != want.CoresPerSocket {
			t.Fatalf("node %d runs %+v, want %+v", i, got, want)
		}
		if i > 0 {
			if _, hi := n.srv.FreqRange(); hi != 1.6 {
				t.Fatalf("edge node %d DVFS ceiling %v", i, hi)
			}
		}
	}
	if placed == 0 {
		t.Fatal("no worlds placed")
	}
	for _, r := range c.Replicas() {
		if r.State != Running {
			t.Fatalf("replica %d state %v", r.ID, r.State)
		}
	}
	checkTicks(t, c)
}

func TestNodeSimsLengthValidated(t *testing.T) {
	_, err := New(Config{Nodes: 3, Factory: testFactory, NodeSims: []sim.Config{sim.DefaultConfig()}})
	if err == nil {
		t.Fatal("mismatched NodeSims length must be rejected")
	}
}

// The smallest replica, estate and log line the coordinator's encoder
// writes are at least the minima their counts are bounded by: one zero
// element more of each grows the section by that much or more.
func TestClusterListBytesFitEncoder(t *testing.T) {
	size := func(c *Coordinator) int {
		e := checkpoint.NewEncoder()
		(&clusterState{c: c}).EncodeState(e)
		return len(e.Bytes())
	}
	fresh := func() *Coordinator {
		c, err := New(chaosConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := size(fresh())
	for _, tc := range []struct {
		name string
		add  func(c *Coordinator)
		min  int
	}{
		{"replica", func(c *Coordinator) { c.replicas = []*Replica{{}} }, replicaBytes},
		{"estate", func(c *Coordinator) { c.estates = []estate{{}} }, 4 + 4 + 8},
		{"log line", func(c *Coordinator) { c.events = []string{""} }, 4},
	} {
		c := fresh()
		tc.add(c)
		if got := size(c) - base; got < tc.min {
			t.Errorf("a zero %s encodes to %d bytes, the decoder demands %d", tc.name, got, tc.min)
		}
	}
}
