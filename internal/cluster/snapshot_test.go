package cluster_test

import (
	"bytes"
	"testing"

	"github.com/twig-sched/twig/internal/cluster"
	"github.com/twig-sched/twig/internal/experiments"
)

// twoServiceNode is a one-node fleet hosting two replicas under a
// quick-scale Twig manager — the node shape of fleet_quick_chaos — with
// both replicas admitted and the fleet stepped `steps` intervals (0
// leaves the node empty: a restore target of the same configuration).
func twoServiceNode(tb testing.TB, steps int) *cluster.Coordinator {
	tb.Helper()
	factory, flush := experiments.PooledFleetFactory(experiments.QuickScale())
	c, err := cluster.New(cluster.Config{
		Nodes: 1, NodeCapacity: 2, Seed: 5, Factory: factory, Flush: flush,
		SnapshotEvery: 1 << 30, // the caller cuts its own
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range []string{"masstree", "xapian"} {
		spec := cluster.ReplicaSpec{Service: name, LoadFrac: 0.35, QoSTargetMs: experiments.QoSTarget(name), Class: cluster.LC}
		if _, err := c.Admit(spec); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < steps; i++ {
		c.Step()
	}
	if steps > 0 && len(c.NodeReplicas(0)) != 2 {
		tb.Fatalf("node 0 hosts %v, want both replicas", c.NodeReplicas(0))
	}
	return c
}

// trainedSteps is far enough for the learner to have trained (Adam
// moments exist) and the replay ring to hold a few hundred transitions.
const trainedSteps = 300

// A node whose shape has not changed re-encodes its snapshot into the
// buffer of the previous one: no allocation, whatever the components
// hold, and the bytes a fresh Marshal of the same world would write.
func TestSnapshotAllocsWarm(t *testing.T) {
	c := twoServiceNode(t, trainedSteps)
	first := c.TakeSnapshot(0)
	if n := testing.AllocsPerRun(20, func() { c.TakeSnapshot(0) }); n > 1 {
		t.Fatalf("warm takeSnapshot allocates %v times, want at most 1", n)
	}
	again := c.TakeSnapshot(0)
	if &again[0] != &first[0] {
		t.Fatal("warm takeSnapshot moved to new storage")
	}
	// The fleet container nests the snapshot through Encoder.Blob: a copy,
	// which is why the node may overwrite its buffer afterwards.
	fleet := c.Marshal()
	c.TakeSnapshot(0)
	if !bytes.Contains(fleet, again) {
		t.Fatal("fleet checkpoint does not carry the node's snapshot bytes")
	}
}

// Warm failover: the state restored onto an empty node is the state the
// victim snapshotted — re-encoding the restored world gives the
// pre-crash container back byte for byte (weights, both Adam moments,
// every replay transition and sum-tree node, RNG positions), and the
// restored world shares no storage with the container it was read from.
func TestWarmRestoreReproducesSnapshot(t *testing.T) {
	victim := twoServiceNode(t, trainedSteps)
	pre := bytes.Clone(victim.TakeSnapshot(0))
	ids := append([]int(nil), victim.NodeReplicas(0)...)

	target := twoServiceNode(t, 0)
	src := bytes.Clone(pre)
	if err := target.RestoreSnapshot(0, src, ids); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0xee // a restored world that aliased its source would now differ
	}
	if got := target.TakeSnapshot(0); !bytes.Equal(got, pre) {
		t.Fatalf("restored world re-encodes to %d bytes that differ from the %d-byte pre-crash snapshot", len(got), len(pre))
	}

}

// BenchmarkSnapshotMarshal is one warm-snapshot cut of a quick-scale
// two-service node into the node's own buffer.
func BenchmarkSnapshotMarshal(b *testing.B) {
	c := twoServiceNode(b, trainedSteps)
	b.SetBytes(int64(len(c.TakeSnapshot(0))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TakeSnapshot(0)
	}
}

// BenchmarkRestoreSnapshot is one warm restore of that snapshot onto an
// empty node: world and controller rebuild plus the decode.
func BenchmarkRestoreSnapshot(b *testing.B) {
	c := twoServiceNode(b, trainedSteps)
	snap := bytes.Clone(c.TakeSnapshot(0))
	ids := append([]int(nil), c.NodeReplicas(0)...)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DropWorld(0)
		if err := c.RestoreSnapshot(0, snap, ids); err != nil {
			b.Fatal(err)
		}
	}
}
