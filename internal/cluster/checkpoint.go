package cluster

import (
	"fmt"
	"slices"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// clusterState is the coordinator's own checkpoint section: the
// interval clock, the replica table with its carried accounting, every
// node's lease/incarnation position and warm snapshot, the reserved
// estates, the injector's schedule position and the cumulative
// counters. Together with one renamed world section group per hosted
// node it pins down the whole fleet; see RestoreFleet.
type clusterState struct {
	c *Coordinator
}

// CheckpointName implements checkpoint.Checkpointable.
func (s *clusterState) CheckpointName() string { return "twig-cluster" }

// EncodeState implements checkpoint.Checkpointable.
func (s *clusterState) EncodeState(e *checkpoint.Encoder) {
	c := s.c
	e.Int(len(c.nodes))
	e.Bool(c.cfg.PinReplicas)
	e.Int(c.clock)
	e.Int(c.admitted)
	e.F64(c.energyJ)

	for _, n := range c.ctr.fields() {
		e.Int(*n)
	}

	c.inj.EncodeState(e)

	e.Int(len(c.replicas))
	for _, r := range c.replicas {
		e.Int(r.ID)
		e.String(r.Spec.Service)
		e.F64(r.Spec.LoadFrac)
		e.F64(r.Spec.QoSTargetMs)
		e.Int(int(r.Spec.Class))
		e.Int(r.Spec.Priority)
		e.Int(int(r.State))
		e.Int(r.Node)
		e.Int(r.LastNode)
		e.Bool(r.Shed)
		e.Int(r.Retries)
		e.Int(r.NextAttempt)
		e.String(r.Reason)
		e.Int(r.AdmitStep)
		e.Int(r.DeadStep)
		e.Int(r.Intervals)
		e.Int(r.Violations)
		e.Int(r.DarkIntervals)
		e.Int(r.Migrations)
		e.Int(r.WarmRestores)
		e.I64(r.seed)
	}

	for i, n := range c.nodes {
		e.Bool(n.alive)
		e.Bool(n.partitioned)
		e.Bool(n.fenced)
		e.Bool(n.coordLive)
		e.Int(n.lastSeen)
		e.Int(n.lastHeard)
		e.Int(n.rejoins)
		e.Int(c.knownInc[i])
		e.Int(n.gen)
		e.Ints(n.replicas)
		e.Bool(n.srv != nil)
		e.Blob(n.snapshot)
		e.Ints(n.snapReplicas)
		e.Int(n.snapClock)
	}

	e.Int(len(c.estates))
	for _, es := range c.estates {
		e.Ints(es.ids)
		e.Blob(es.snapshot)
		e.Int(es.expires)
	}

	e.Int(len(c.events))
	for _, ev := range c.events {
		e.String(ev)
	}
}

// DecodeState implements checkpoint.Checkpointable. The coordinator
// must be freshly constructed with the same Config the checkpoint was
// taken under; node worlds are rebuilt afterwards by RestoreFleet. A
// replica record Admit would refuse, or whose class, state or nodes are
// out of range, is an error naming the replica.
func (s *clusterState) DecodeState(d *checkpoint.Decoder) (err error) {
	c := s.c
	nodes, pinned := d.Int(), d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if nodes != len(c.nodes) || pinned != c.cfg.PinReplicas {
		return fmt.Errorf("cluster: checkpoint covers %d nodes, pinned=%v; config has %d, pinned=%v", nodes, pinned, len(c.nodes), c.cfg.PinReplicas)
	}
	c.clock = d.Int()
	c.admitted = d.Int()
	c.energyJ = d.F64()

	for _, n := range c.ctr.fields() {
		*n = d.Int()
	}

	if err := c.inj.DecodeState(d); err != nil {
		return err
	}

	nr := d.Count(replicaBytes)
	noNode := func(n int) bool { return n < -1 || n >= len(c.nodes) }
	noReplica := func(id int) bool { return id < 0 || id >= nr }
	c.replicas = make([]*Replica, nr)
	for i := range c.replicas {
		r := &Replica{}
		r.ID = d.Int()
		r.Spec.Service = d.String()
		r.Spec.LoadFrac = d.F64()
		r.Spec.QoSTargetMs = d.F64()
		class := d.Int()
		r.Spec.Priority = d.Int()
		st := d.Int()
		r.Node = d.Int()
		r.LastNode = d.Int()
		r.Shed = d.Bool()
		r.Retries = d.Int()
		r.NextAttempt = d.Int()
		r.Reason = d.String()
		r.AdmitStep = d.Int()
		r.DeadStep = d.Int()
		r.Intervals = d.Int()
		r.Violations = d.Int()
		r.DarkIntervals = d.Int()
		r.Migrations = d.Int()
		r.WarmRestores = d.Int()
		r.seed = d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if r.ID != i {
			return fmt.Errorf("cluster: replica %d stored at index %d", r.ID, i)
		}
		// Range checks before a conversion to uint8 can wrap.
		if class < 0 || class > int(Batch) || st < 0 || st >= numReplicaStates || noNode(r.Node) || noNode(r.LastNode) {
			return fmt.Errorf("cluster: replica %d has class %d, state %d, node %d, last node %d", r.ID, class, st, r.Node, r.LastNode)
		}
		r.Spec.Class, r.State = Class(class), ReplicaState(st)
		if err := r.Spec.check(); err != nil {
			return fmt.Errorf("cluster: replica %d: %w", r.ID, err)
		}
		c.replicas[i] = r
	}

	for i, n := range c.nodes {
		n.alive = d.Bool()
		n.partitioned = d.Bool()
		n.fenced = d.Bool()
		n.coordLive = d.Bool()
		n.lastSeen = d.Int()
		n.lastHeard = d.Int()
		n.rejoins = d.Int()
		c.knownInc[i] = d.Int()
		n.gen = d.Int()
		n.replicas = d.Ints()
		n.hadWorld = d.Bool()
		n.snapshot = d.Blob()
		n.snapReplicas = d.Ints()
		n.snapClock = d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if slices.ContainsFunc(n.replicas, noReplica) {
			return fmt.Errorf("cluster: node %d hosts an unknown replica", i)
		}
	}

	c.estates = nil
	for range d.Count(4 + 4 + 8) { // no ids, no snapshot, the expiry
		es := estate{ids: d.Ints(), snapshot: d.Blob(), expires: d.Int()}
		if slices.ContainsFunc(es.ids, noReplica) {
			return fmt.Errorf("cluster: estate %d names an unknown replica", len(c.estates))
		}
		c.estates = append(c.estates, es)
	}
	c.events = nil
	for range d.Count(4) { // an empty line
		c.events = append(c.events, d.String())
	}
	return d.Err()
}

// replicaBytes is the smallest encoding of one Replica: eighteen 8-byte
// fields, two empty strings and a bool.
const replicaBytes = 18*8 + 2*4 + 1

// worldSectionComponents returns n's world components renamed with the
// node prefix, the section group one hosted node contributes to the
// fleet container.
func (c *Coordinator) worldSectionComponents(n *node) []checkpoint.Checkpointable {
	var out []checkpoint.Checkpointable
	for _, comp := range n.world {
		out = append(out, checkpoint.Renamed(comp, fmt.Sprintf("node%d-%s", n.id, comp.CheckpointName())))
	}
	return out
}

// marshalLocked appends the full fleet's container to dst (caller holds
// the lock): the cluster section plus one renamed world section group
// per hosted node. A cut headed for the writer encodes into the writer's
// own settled storage, c.writer.Buffer().
func (c *Coordinator) marshalLocked(dst []byte) []byte {
	comps := []checkpoint.Checkpointable{&clusterState{c: c}}
	for _, n := range c.nodes {
		if n.srv != nil {
			comps = append(comps, c.worldSectionComponents(n)...)
		}
	}
	return checkpoint.MarshalAppend(dst, comps...)
}

// Marshal encodes the full fleet state into one crash-consistent
// container.
func (c *Coordinator) Marshal() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.marshalLocked(nil)
}

// CheckpointNow synchronously cuts a fleet checkpoint at the current
// boundary and waits for it to reach disk (no-op without a store).
func (c *Coordinator) CheckpointNow() error {
	if c.writer == nil {
		return nil
	}
	c.mu.Lock()
	data := c.marshalLocked(c.writer.Buffer())
	seq := uint64(c.clock)
	c.mu.Unlock()
	c.writer.Submit(seq, data)
	return c.writer.Flush()
}

// FlushCheckpoints waits for every submitted fleet checkpoint to reach
// disk.
func (c *Coordinator) FlushCheckpoints() error {
	if c.writer == nil {
		return nil
	}
	return c.writer.Flush()
}

// rebuildWorlds builds a world of the checkpointed shape on every node
// the decoded cluster section says hosted one, and returns the renamed
// sections to decode into them.
func (c *Coordinator) rebuildWorlds() []checkpoint.Checkpointable {
	var comps []checkpoint.Checkpointable
	for _, n := range c.nodes {
		if !n.hadWorld {
			continue
		}
		gen := n.gen
		c.buildWorld(n, n.replicas)
		n.gen = gen // buildController bumped it; keep future rebuilds aligned
		comps = append(comps, c.worldSectionComponents(n)...)
	}
	return comps
}

// RestoreFleet rebuilds a coordinator from the newest valid fleet
// checkpoint in cfg.Store. The restore is two-phase, mirroring the
// daemon's: the cluster section alone is decoded first to learn the
// replica table and each node's membership, then a world of the
// checkpointed shape is rebuilt on every hosted node and its renamed
// sections are decoded into it. Because every component's DecodeState
// fully overwrites its random streams and learning state, the resumed
// fleet trajectory is bit-identical to an uninterrupted run.
func RestoreFleet(cfg Config) (*Coordinator, uint64, error) {
	if cfg.Store == nil {
		return nil, 0, fmt.Errorf("cluster: no checkpoint store configured")
	}
	c, err := New(cfg)
	if err != nil {
		return nil, 0, err
	}
	seq, data, err := cfg.Store.ReadLatest()
	if err != nil {
		return nil, 0, err
	}
	if err := checkpoint.Unmarshal(data, &clusterState{c: c}); err != nil {
		return nil, 0, fmt.Errorf("cluster: reading fleet checkpoint %d: %w", seq, err)
	}
	if comps := c.rebuildWorlds(); len(comps) > 0 {
		if err := checkpoint.Unmarshal(data, comps...); err != nil {
			return nil, 0, fmt.Errorf("cluster: restoring fleet checkpoint %d: %w", seq, err)
		}
	}
	return c, seq, nil
}
