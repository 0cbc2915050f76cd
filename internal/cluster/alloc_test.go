package cluster

import (
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
)

// fixedCtl returns one prebuilt assignment: a controller that
// allocates nothing.
type fixedCtl struct{ asg sim.Assignment }

func (fixedCtl) Name() string                             { return "fixed" }
func (f fixedCtl) Decide(ctrl.Observation) sim.Assignment { return f.asg }

func fixedFactory(srv *sim.Server, _ []ReplicaSpec, _ int64) (ctrl.Controller, []checkpoint.Checkpointable) {
	lo, hi := srv.FreqRange()
	return fixedCtl{ctrl.SafeAssignment(srv.NumServices(), srv.ManagedCores(), lo, hi)}, nil
}

// A fault-free warm coordinator interval adds nothing to its nodes'
// steps: the crash and partition flags and the degradation policy's
// live, ranked and shed sets are coordinator storage. Over controllers
// that allocate nothing, what is left is each stepped node's
// StepResult.Services, which the caller keeps: one allocation per node.
// Snapshot intervals re-encode into the node's previous snapshot
// (TestSnapshotAllocsWarm).
func TestCoordinatorStepAllocsWarm(t *testing.T) {
	const nodes = 3
	c, err := New(Config{Nodes: nodes, NodeCapacity: 2, Factory: fixedFactory, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Seven replicas on six slots: every interval the degradation
	// policy ranks them and keeps the batch replica shed.
	mustAdmit(t, c, lcSpec("masstree", 3), lcSpec("moses", 2), batchSpec("xapian"), lcSpec("img-dnn", 1),
		lcSpec("memcached", 4), lcSpec("web-search", 5), lcSpec("xapian", 6))
	stepN(c, 40)
	for _, r := range c.Replicas() {
		if r.Shed != (r.ID == 2) || !r.Shed && r.State != Running {
			t.Fatalf("replica %d: %v, shed %v after warm-up", r.ID, r.State, r.Shed)
		}
	}
	if got := testing.AllocsPerRun(50, func() { c.Step() }); got != nodes {
		t.Errorf("warm Coordinator.Step: %v allocations, want %d (one per node)", got, nodes)
	}
}
