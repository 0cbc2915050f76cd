package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/mat/tiertest"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// testdata/parent_pr15 holds two checkpoints the commit before the
// interval kernel wrote, each with the rows that commit's own
// uninterrupted run produced after the cut (DESIGN.md, "The interval
// kernel", on the codec). A throwaway
// test on that commit wrote them with the worlds built below; the tests
// here restore them through ctrl.Loop's codec and must match every row
// in hex floats, and re-marshalling the restored state must reproduce
// the parent's bytes. Both run under every kernel tier the host has.
func parentFixture(t *testing.T, name string) []byte {
	t.Helper()
	if !strings.Contains(name, "/") {
		name = "parent_pr15/" + name
	}
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func parentRows(t *testing.T, name string) []string {
	return strings.Split(strings.TrimSpace(string(parentFixture(t, name))), "\n")
}

func matchRows(t *testing.T, from int, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("resumed run produced %d rows, the parent's %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diverged from the parent's run at row %d (t=%d):\n  parent:  %s\n  resumed: %s", i, from+i, want[i], got[i])
		}
	}
}

// The "run-loop" section: experiments.Run over the fault-injected
// masstree+xapian world at tiny scale, cut after interval 39 of 70.
func TestParentRunCheckpointResumesHexIdentical(t *testing.T) {
	srv, mgr := buildResumeWorld(tinyScale(), 21, []string{"masstree", "xapian"})
	resumeParentRun(t, "parent_pr15/", srv, mgr)
}

// A cut written by the commit before the live × live backward pass
// (testdata/parent_pr17; DESIGN.md, "The training step and its kernel
// tiers"), at a scale where that pass has
// something to leave out — trunk layers of 32 and 24 units with dropout,
// 16-unit branches, minibatches of 16 — and in the world without fault
// injection: the corrupted PMCs of the world above reach its weights as
// NaNs, whose payloads are the one thing the kernel tiers do not agree on,
// and this fixture's last row is the hash of the parent's whole state at
// the end of its run, so that every weight and moment counts, not only
// the decisions they led to.
func TestParentPR17RunCheckpointResumesHexIdentical(t *testing.T) {
	sc := tinyScale()
	sc.Name = "pr17"
	sc.SharedHidden = []int{32, 24}
	sc.BranchHidden = 16
	sc.BatchSize = 16
	sc.Dropout = 0.5
	names := []string{"masstree", "xapian"}
	srv := NewServer(21, names...)
	resumeParentRun(t, "parent_pr17/", srv, NewTwig(srv, sc, 21, names...))
}

func resumeParentRun(t *testing.T, dir string, srv *sim.Server, mgr *core.Manager) {
	tiertest.EachLower(t)
	const cut, total = 40, 70
	raw := parentFixture(t, dir+"run-000000000040.twig")
	ls := NewLoopState(srv, mgr)
	if err := checkpoint.Unmarshal(raw, srv, mgr, ls); err != nil {
		t.Fatalf("restoring the parent's checkpoint: %v", err)
	}
	if ls.Next != cut {
		t.Fatalf("restored next interval = %d, want %d", ls.Next, cut)
	}
	if !bytes.Equal(checkpoint.Marshal(srv, mgr, ls), raw) {
		t.Fatal("re-marshalling the restored run does not reproduce the parent's bytes")
	}
	var got []string
	cfg := RunConfig{
		Server: srv, Controller: mgr, Seconds: total,
		Patterns: []loadgen.Pattern{loadgen.Fixed(500), loadgen.Fixed(300)},
		Hook: func(tt int, res sim.StepResult, asg sim.Assignment) {
			got = append(got, record(tt, res, asg))
		},
	}
	ls.Configure(&cfg)
	Run(cfg)
	want := parentRows(t, dir+"run-rows.txt")
	if strings.HasPrefix(want[len(want)-1], "final ") {
		ls.Next = total
		got = append(got, fmt.Sprintf("final sha256=%x", sha256.Sum256(checkpoint.Marshal(srv, mgr, ls))))
	}
	matchRows(t, cut, got, want)
}

func parentFleetConfig(store *checkpoint.Store) cluster.Config {
	cs := faults.MustNamedCluster("chaos")
	adaptClusterScenario(&cs, 160)
	factory, flush := PooledFleetFactory(tinyScale())
	return cluster.Config{
		Nodes: 3, NodeCapacity: 2, Seed: 21, Scenario: cs, MaxRetries: 4,
		Factory: factory, Flush: flush, Store: store,
	}
}

func fleetRow(c *cluster.Coordinator, s cluster.StepSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d e=%s active=%v", s.Time, hx(s.EnergyJ), s.Active)
	for _, r := range c.Replicas() {
		fmt.Fprintf(&b, " [%d %v n=%d shed=%v up=%d viol=%d dark=%d mig=%d warm=%d]",
			r.ID, r.State, r.Node, r.Shed, r.Intervals, r.Violations, r.DarkIntervals, r.Migrations, r.WarmRestores)
	}
	return b.String()
}

// The fleet container — "twig-cluster", the "nodeN-…" world groups and
// their "cluster-node-loop" sections, plus the warm snapshots carrying
// the same sections — of the pooled chaos fleet (ChaosMix on three
// nodes, tiny scale), cut at t=60 of 160. Two node crashes follow the
// cut, so the run also warm-restores from snapshot containers. The last
// row is the hash of the whole fleet state at t=160.
func TestParentFleetCheckpointResumesHexIdentical(t *testing.T) {
	tiertest.EachLower(t)
	const cut, total = 60, 160
	raw := parentFixture(t, "fleet-000000000060.twig")
	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(cut), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, seq, err := cluster.RestoreFleet(parentFleetConfig(store))
	if err != nil {
		t.Fatalf("restoring the parent's fleet checkpoint: %v", err)
	}
	if seq != cut || c.Clock() != cut {
		t.Fatalf("restored seq %d, resumes at t=%d, want %d", seq, c.Clock(), cut)
	}
	if !bytes.Equal(c.Marshal(), raw) {
		t.Fatal("re-marshalling the restored fleet does not reproduce the parent's bytes")
	}
	var got []string
	for c.Clock() < total {
		got = append(got, fleetRow(c, c.Step()))
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	got = append(got, fmt.Sprintf("final sha256=%x", sha256.Sum256(c.Marshal())))
	matchRows(t, cut, got, parentRows(t, "fleet-rows.txt"))
}
