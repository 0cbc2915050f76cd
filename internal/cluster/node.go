package cluster

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/service"
)

// node is one fleet member: a simulated server running the per-node
// Twig control loop, plus the lease bookkeeping both sides of the
// heartbeat protocol act on. A node with no replicas holds no world
// (srv == nil); the world is built at first placement and dropped on
// crash, self-fence or last eviction.
type node struct {
	id int

	// alive is the machine's power state: false for the duration of an
	// injected NodeCrash. partitioned means the node runs but no
	// heartbeat crosses in either direction. fenced means the node
	// self-fenced after its lease expired mid-partition: it dropped its
	// world and serves nothing until it rejoins.
	alive       bool
	partitioned bool
	fenced      bool

	// coordLive is the coordinator's view: true while the node's lease
	// is valid. lastSeen is the last interval the coordinator received a
	// heartbeat; lastHeard the last interval the node heard the
	// coordinator. Both sides fence at lease expiry using the same TTL,
	// so they agree on the fencing interval and no replica is ever
	// served by two nodes.
	coordLive bool
	lastSeen  int
	lastHeard int

	// rejoins counts crash/fence recoveries; it perturbs the node seed
	// so a rejoined node's measurement streams do not replay.
	rejoins int
	// gen counts controller rebuilds, seeding fresh learners
	// deterministically on every membership change.
	gen int

	// replicas holds the hosted replica IDs in simulator index order.
	replicas []int
	// hadWorld is only meaningful during RestoreFleet: whether the
	// checkpoint recorded a running world for this node.
	hadWorld bool

	srv        *sim.Server
	controller ctrl.Controller
	loop       *ctrl.Loop // the interval kernel over srv and controller, rebuilt with them
	// world lists every checkpointable of the running world in snapshot
	// section order — simulator, controller components, loop state —
	// rebuilt with the controller.
	world []checkpoint.Checkpointable

	// snapshot is the latest warm in-memory checkpoint of the node's
	// world and controller stack, the source for warm failover;
	// snapReplicas the replica IDs it covers, snapClock the coordinator
	// interval it was cut at.
	//
	// The node is the buffer's only owner, which is what lets
	// takeSnapshot encode the next snapshot over the previous one: failOver
	// moves the slice to the estate and nils it here, the fleet
	// checkpoint copies the bytes out (Encoder.Blob) and a restored
	// coordinator gets its own copy (Decoder.Blob). Nothing may retain
	// n.snapshot across a Step. Storage nothing holds any more goes to
	// the coordinator's spare (recycle), which takeSnapshot trades for a
	// node's own when it is the larger.
	snapshot     []byte
	snapReplicas []int
	snapClock    int
}

// seedFor derives the node's base seed: distinct per node and per
// rejoin so no two worlds ever share a measurement stream.
func (c *Coordinator) seedFor(n *node) int64 {
	return c.cfg.Seed + int64(n.id)*10007 + int64(n.rejoins)*379
}

// specFor builds the simulator spec for one replica. The service seed
// is derived from the replica ID alone, so a migrated replica's fresh
// instance draws the same request stream wherever it lands.
func (c *Coordinator) specFor(r *Replica) sim.ServiceSpec {
	return sim.ServiceSpec{
		Profile:     service.MustLookup(r.Spec.Service),
		QoSTargetMs: r.Spec.QoSTargetMs,
		Seed:        r.seed,
	}
}

// buildWorld constructs a fresh world on n hosting the given replicas
// (cold instances) and a fresh controller stack. A heterogeneous fleet
// (Config.NodeSims) gives the node its own SKU; the measurement seed is
// always the node's derived one.
func (c *Coordinator) buildWorld(n *node, ids []int) {
	cfg := sim.DefaultConfig()
	if len(c.cfg.NodeSims) > 0 {
		cfg = c.cfg.NodeSims[n.id]
	}
	cfg.MeasurementSeed = c.seedFor(n)
	specs := make([]sim.ServiceSpec, len(ids))
	for i, id := range ids {
		specs[i] = c.specFor(c.replicas[id])
	}
	n.replicas = append([]int(nil), ids...)
	n.srv = sim.NewServer(cfg, specs)
	c.buildController(n)
}

// buildController rebuilds n's controller stack and interval kernel for
// its current membership at the next generation. Mirrors the daemon
// engine: a membership change means a fresh learner (the agent's
// network shape is fixed by the service count), seeded deterministically
// by the generation; the simulator state is untouched.
func (c *Coordinator) buildController(n *node) {
	closeController(n.controller)
	n.gen++
	specs := make([]ReplicaSpec, len(n.replicas))
	for i, id := range n.replicas {
		specs[i] = c.replicas[id].Spec
	}
	var comps []checkpoint.Checkpointable
	n.controller, comps = c.cfg.Factory(n.srv, specs, c.seedFor(n)+int64(n.gen)*7919)
	n.loop = ctrl.NewLoop(n.srv, n.controller)
	n.world = append(append([]checkpoint.Checkpointable{n.srv}, comps...), nodeLoopState{n.loop})
}

// dropWorld discards n's world and controller stack (crash or fence).
// The hosted replica IDs are left on the node: the coordinator only
// reassigns them once the lease expires.
func (n *node) dropWorld() {
	closeController(n.controller)
	n.srv = nil
	n.controller = nil
	n.loop = nil
	n.world = nil
}

// evict removes the replica at simulator index idx from n's world.
func (c *Coordinator) evict(n *node, idx int) error {
	if err := n.srv.RemoveService(idx); err != nil {
		return err
	}
	n.replicas = append(n.replicas[:idx], n.replicas[idx+1:]...)
	if len(n.replicas) == 0 {
		n.dropWorld()
		return nil
	}
	c.buildController(n)
	return nil
}

// place adds replica r to n's world (cold instance).
func (c *Coordinator) place(n *node, r *Replica) error {
	if n.srv == nil {
		c.buildWorld(n, []int{r.ID})
		return nil
	}
	if err := n.srv.AddService(c.specFor(r)); err != nil {
		return err
	}
	n.replicas = append(n.replicas, r.ID)
	c.buildController(n)
	return nil
}

// nodeLoopState names the section a node's interval kernel travels in,
// in snapshots and fleet checkpoints; decoding it restores the loop
// position in place.
type nodeLoopState struct{ *ctrl.Loop }

// CheckpointName implements checkpoint.Checkpointable.
func (nodeLoopState) CheckpointName() string { return "cluster-node-loop" }

// takeSnapshot cuts n's in-memory warm-failover container into the
// storage of the snapshot it replaces or, when the coordinator's spare is
// larger, into the spare, which keeps n's storage instead: a node that
// has none or has outgrown its own takes the larger buffer rather than
// growing a new one, and the fleet holds no more storage than before.
func (c *Coordinator) takeSnapshot(n *node) {
	if cap(c.spare) > cap(n.snapshot) {
		n.snapshot, c.spare = c.spare, n.snapshot[:0]
	}
	n.snapshot = checkpoint.MarshalAppend(n.snapshot[:0], n.world...)
	n.snapReplicas = append(n.snapReplicas[:0], n.replicas...)
	n.snapClock = c.clock
}

// restoreSnapshot rebuilds the snapshot's world group onto n (which
// must be empty): same membership shape, then every component's state
// overwritten from the container — weights, optimiser moments, replay,
// RNG positions — so learning survives the move.
func (c *Coordinator) restoreSnapshot(n *node, snapshot []byte, ids []int) error {
	if n.srv != nil {
		return fmt.Errorf("cluster: node %d is not empty", n.id)
	}
	c.buildWorld(n, ids)
	if err := checkpoint.Unmarshal(snapshot, n.world...); err != nil {
		n.replicas = nil
		n.dropWorld()
		return err
	}
	return nil
}

// closeController takes a controller stack being discarded out of
// whatever it registered with (a pooled manager's agent pool).
func closeController(ctl ctrl.Controller) {
	if cl, ok := ctl.(ctrl.Closer); ok {
		cl.Close()
	}
}
