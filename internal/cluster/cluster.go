// Package cluster is the fleet control plane: N simulated nodes, each
// running the per-node Twig control loop, under one coordinator that
// owns service placement. The coordinator tracks node health with
// heartbeat leases, detects whole-node crash and partition episodes
// (injected deterministically by faults.ClusterInjector), and drives a
// placement state machine per replica — pending → placed → running →
// migrating → dead-letter — with bounded retries and deterministic
// exponential backoff. Failover restores the victim node's agent state
// from an in-memory warm snapshot when the whole group can move to an
// empty node, so learning survives the move; otherwise replicas restart
// cold on whatever capacity remains. When capacity drops below demand a
// degradation policy sheds replicas by QoS class — batch first, then
// latency-critical in ascending priority.
//
// Everything is deterministic for a given (config, seed, admission
// schedule): node fault schedules, placement decisions, backoff, world
// seeds and controller rebuild seeds are all derived, never drawn from
// wall-clock or map order. Combined with the crash-consistent fleet
// checkpoint (see RestoreFleet), a resumed run is bit-identical to an
// uninterrupted one.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/metrics"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Named admission errors.
var (
	ErrUnknownService = errors.New("cluster: unknown service profile")
	ErrBadLoad        = errors.New("cluster: load fraction must be a finite value in (0, 1.5]")
	ErrBadQoS         = errors.New("cluster: QoS target must be a finite positive latency")
)

// ControllerFactory builds the per-node controller stack for a node's
// current membership: the Decide implementation plus the checkpointable
// components (typically the Twig manager) that must travel in warm
// snapshots and fleet checkpoints. It is injected — rather than the
// cluster importing the experiment harness — so the experiments package
// can drive fleets of full Twig managers while cluster tests use cheap
// static controllers. The factory must be deterministic in its
// arguments.
type ControllerFactory func(srv *sim.Server, specs []ReplicaSpec, seed int64) (ctrl.Controller, []checkpoint.Checkpointable)

// Config assembles a fleet coordinator.
type Config struct {
	// Nodes is the fleet size (at least 1).
	Nodes int
	// NodeCapacity is the maximum number of replicas one node hosts
	// (values < 1 become 4). Fleet capacity is Nodes × NodeCapacity over
	// the nodes whose lease is valid.
	NodeCapacity int
	// Seed fixes every random stream; equal seeds give bit-identical
	// runs.
	Seed int64
	// Scenario is the whole-node fault schedule (zero injects nothing).
	Scenario faults.ClusterScenario
	// LeaseTTL is the heartbeat lease in intervals: a node unheard for
	// TTL intervals is declared dead by the coordinator, and a
	// partitioned node self-fences after the same TTL, so no replica is
	// ever served by two nodes (values < 1 become 3).
	LeaseTTL int
	// BackoffBase scales the placement retry backoff: a replica's n-th
	// consecutive failure defers the next attempt by
	// BackoffBase << min(n-1, 6) intervals (values < 1 become 2).
	BackoffBase int
	// MaxRetries bounds consecutive placement failures before a replica
	// dead-letters (values < 0 become 5; 0 dead-letters on the first
	// failure).
	MaxRetries int
	// SnapshotEvery is the warm-snapshot cadence in intervals (values
	// < 1 become 10).
	SnapshotEvery int
	// EstateGraceS is how many intervals a dead node's replica group is
	// reserved for a warm whole-group restore before falling back to
	// individual cold placement (values < 1 become 2×LeaseTTL).
	EstateGraceS int
	// PinReplicas switches the coordinator to static partitioning, the
	// figchaos baseline: replica i may only ever be placed on node
	// i mod Nodes, warm failover is disabled, and a dead home node
	// leaves its replicas dark until it returns.
	PinReplicas bool
	// Factory builds each node's controller stack (required).
	Factory ControllerFactory
	// Flush, when set, switches stepWorlds to fleet-batched decisions:
	// every node controller implementing ctrl.PhasedController gets
	// PrepareDecide, then Flush runs once (e.g. one batched grouped-GEMM
	// sweep over every node's pooled agent), then FinishDecide collects
	// the assignments. Per-node trajectories are bit-identical to the
	// unbatched path; only the execution shape changes. Controllers that
	// are not phased keep the plain Decide path.
	Flush func()
	// Store enables periodic crash-consistent fleet checkpoints (nil
	// disables); CheckpointEvery is the cadence in intervals (values
	// < 1 become 60).
	Store           *checkpoint.Store
	CheckpointEvery int
	// NodeSims, when non-empty, gives each node its own simulator
	// configuration (platform SKU, DVFS range, inter-tier latency tax) —
	// a heterogeneous fleet, e.g. a cloud-edge scenario's node classes.
	// Its length must equal Nodes; MeasurementSeed is overridden with
	// the node's derived seed. Empty keeps every node on the default
	// paper SKU.
	NodeSims []sim.Config
}

func (c *Config) normalize() {
	if c.NodeCapacity < 1 {
		c.NodeCapacity = 4
	}
	if c.LeaseTTL < 1 {
		c.LeaseTTL = 3
	}
	if c.BackoffBase < 1 {
		c.BackoffBase = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 5
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 10
	}
	if c.EstateGraceS < 1 {
		c.EstateGraceS = 2 * c.LeaseTTL
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 60
	}
}

// estate is a dead node's replica group reserved for warm restore: the
// snapshot container, the replica IDs it covers (in simulator order)
// and the interval the reservation lapses.
type estate struct {
	ids      []int
	snapshot []byte
	expires  int
}

// counters are the coordinator's cumulative event counts; they travel
// in the fleet checkpoint so a resumed run reports identical totals.
type counters struct {
	LeaseExpiries  int
	RestartsSeen   int
	WarmRestores   int
	ColdRestores   int
	Migrations     int
	DeadLetters    int
	PlacementFails int
	ShedEpisodes   int
	ShedLC         int // intervals LC replicas spent shed
	ShedBatch      int // intervals batch replicas spent shed
	DecidePanics   int
	StepErrors     int
	EventsInjected int
	SnapshotsTaken int
}

// StepSummary reports one coordinator interval.
type StepSummary struct {
	Time int
	// EnergyJ is the fleet-wide energy spent this interval.
	EnergyJ float64
	// Active lists the node outages in effect.
	Active []faults.NodeEvent
}

// Coordinator is the fleet control plane. Construct with New, admit
// replicas, then call Step once per monitoring interval.
type Coordinator struct {
	mu  sync.Mutex
	cfg Config

	nodes    []*node
	knownInc []int // coordinator's view of each node's incarnation
	replicas []*Replica
	estates  []estate
	inj      *faults.ClusterInjector

	clock    int
	admitted int
	energyJ  float64
	ctr      counters

	events []string // recent coordinator decisions, newest last

	metrics *metrics.Registry
	series  clusterSeries
	writer  *checkpoint.AsyncWriter
}

// New builds a coordinator over an empty fleet.
func New(cfg Config) (*Coordinator, error) {
	cfg.normalize()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: at least one node required")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("cluster: a ControllerFactory is required")
	}
	if len(cfg.NodeSims) != 0 && len(cfg.NodeSims) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d node sim configs for %d nodes", len(cfg.NodeSims), cfg.Nodes)
	}
	c := &Coordinator{
		cfg:      cfg,
		inj:      faults.NewClusterInjector(cfg.Scenario, cfg.Seed+13, cfg.Nodes),
		metrics:  metrics.NewRegistry(),
		knownInc: make([]int, cfg.Nodes),
	}
	c.describeMetrics()
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{
			id: i, alive: true, coordLive: true,
			lastSeen: -1, lastHeard: -1,
		})
	}
	if cfg.Store != nil {
		c.writer = checkpoint.NewAsyncWriter(cfg.Store)
	}
	return c, nil
}

// Admit registers a replica; it is placed at the next Step. Returns the
// replica ID.
func (c *Coordinator) Admit(spec ReplicaSpec) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := service.Lookup(spec.Service); err != nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownService, spec.Service)
	}
	if math.IsNaN(spec.LoadFrac) || math.IsInf(spec.LoadFrac, 0) || spec.LoadFrac <= 0 || spec.LoadFrac > 1.5 {
		return 0, fmt.Errorf("%w: got %v", ErrBadLoad, spec.LoadFrac)
	}
	if math.IsNaN(spec.QoSTargetMs) || math.IsInf(spec.QoSTargetMs, 0) || spec.QoSTargetMs <= 0 {
		return 0, fmt.Errorf("%w: got %v", ErrBadQoS, spec.QoSTargetMs)
	}
	r := &Replica{
		ID:        c.admitted,
		Spec:      spec,
		Node:      -1,
		LastNode:  -1,
		AdmitStep: c.clock,
		DeadStep:  -1,
		seed:      c.cfg.Seed + int64(c.admitted)*101,
	}
	c.admitted++
	c.replicas = append(c.replicas, r)
	c.logf("t=%d admit replica %d (%s, %s prio %d)", c.clock, r.ID, spec.Service, spec.Class, spec.Priority)
	return r.ID, nil
}

// Clock returns the next interval to execute.
func (c *Coordinator) Clock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// Metrics exposes the registry backing the cluster /metrics families.
func (c *Coordinator) Metrics() *metrics.Registry { return c.metrics }

// Replicas returns a copy of every replica's current record.
func (c *Coordinator) Replicas() []Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Replica, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = *r
	}
	return out
}

// Step runs one coordinator interval: advance the fault schedule, apply
// machine transitions, exchange heartbeats and fence expired leases,
// shed or restore by QoS class, drive placements (warm group restores
// first, then individual cold placement with backoff), step every
// reachable node's control loop, account every replica exactly one
// tick, and cut warm snapshots and fleet checkpoints on cadence.
func (c *Coordinator) Step() StepSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.clock
	active := append([]faults.NodeEvent(nil), c.inj.Advance()...)

	crashed := make([]bool, len(c.nodes))
	parted := make([]bool, len(c.nodes))
	for _, ev := range active {
		switch ev.Kind {
		case faults.NodeCrash:
			crashed[ev.Node] = true
		case faults.NodePartition:
			parted[ev.Node] = true
		}
		if ev.Start == t {
			c.ctr.EventsInjected++
			c.logf("t=%d inject %v", t, ev)
		}
	}

	c.applyMachineState(t, crashed, parted)
	c.exchangeHeartbeats(t)
	c.expireLeases(t)
	c.applyDegradation(t)
	c.restoreEstates(t)
	c.placeReplicas(t)
	energy := c.stepWorlds(t)
	c.takeSnapshots(t)
	c.updateMetrics()

	c.clock = t + 1
	c.energyJ += energy
	if c.writer != nil && c.clock%c.cfg.CheckpointEvery == 0 {
		c.writer.Submit(uint64(c.clock), c.marshalLocked(c.writer.Buffer()))
	}
	return StepSummary{Time: t, EnergyJ: energy, Active: active}
}

// applyMachineState applies this interval's injected outages to the
// machines themselves: crash onset loses the node's world on the spot;
// crash recovery and partition-heal-after-fence rejoin the node empty
// under a new incarnation.
func (c *Coordinator) applyMachineState(t int, crashed, parted []bool) {
	for i, n := range c.nodes {
		if crashed[i] && n.alive {
			n.alive = false
			n.dropWorld()
			c.logf("t=%d node %d crashed (world lost)", t, i)
		}
		if !crashed[i] && !n.alive {
			// The machine is back, empty, under a new incarnation. The
			// coordinator's routing entries (n.replicas) survive until
			// failover reassigns them — at lease expiry, or at the
			// incarnation-mismatch heartbeat if the outage was shorter
			// than the lease.
			n.alive = true
			n.fenced = false
			n.rejoins++
			c.logf("t=%d node %d rejoined empty (incarnation %d)", t, i, n.rejoins)
		}
		wasParted := n.partitioned
		n.partitioned = parted[i]
		if wasParted && !parted[i] && n.fenced {
			n.fenced = false
			n.rejoins++
			c.logf("t=%d node %d partition healed, rejoined empty (incarnation %d)", t, i, n.rejoins)
		}
	}
}

// exchangeHeartbeats renews leases for reachable nodes and self-fences
// nodes partitioned past the TTL. A heartbeat carries the node's
// incarnation; a mismatch tells the coordinator the node restarted
// inside the lease window (an outage shorter than the TTL), and its
// replicas fail over exactly as if the lease had expired.
func (c *Coordinator) exchangeHeartbeats(t int) {
	for i, n := range c.nodes {
		switch {
		case n.alive && !n.partitioned:
			if !n.coordLive {
				n.coordLive = true
				c.logf("t=%d node %d lease restored", t, i)
			}
			if c.knownInc[i] != n.rejoins {
				c.ctr.RestartsSeen++
				c.failOver(t, n, fmt.Sprintf("node %d restarted within its lease", i))
				c.knownInc[i] = n.rejoins
			}
			n.lastSeen = t
			n.lastHeard = t
		case n.alive && n.partitioned && !n.fenced:
			// The node cannot reach the coordinator; at lease expiry it
			// must assume it was declared dead and stop serving.
			if t-n.lastHeard >= c.cfg.LeaseTTL {
				n.fenced = true
				n.dropWorld()
				c.logf("t=%d node %d self-fenced (no coordinator for %d intervals)", t, i, t-n.lastHeard)
			}
		}
	}
}

// expireLeases declares nodes unheard for TTL intervals dead and fails
// their replicas over. Because the node side fences at the same TTL,
// the two decisions land in the same interval.
func (c *Coordinator) expireLeases(t int) {
	for i, n := range c.nodes {
		if n.coordLive && t-n.lastSeen >= c.cfg.LeaseTTL {
			n.coordLive = false
			c.ctr.LeaseExpiries++
			c.logf("t=%d node %d lease expired (last heartbeat t=%d)", t, i, n.lastSeen)
			c.failOver(t, n, fmt.Sprintf("node %d lease expired", i))
		}
	}
}

// failOver moves every replica assigned to n into Migrating and, when a
// warm snapshot covers exactly the current group, reserves the group as
// an estate for whole-group restore. Static partitioning (PinReplicas)
// never reserves estates: replicas restart cold on their home node.
func (c *Coordinator) failOver(t int, n *node, reason string) {
	if len(n.replicas) == 0 {
		n.snapshot, n.snapReplicas = nil, nil
		return
	}
	if !c.cfg.PinReplicas && n.snapshot != nil && slices.Equal(n.snapReplicas, n.replicas) {
		c.estates = append(c.estates, estate{
			ids:      append([]int(nil), n.snapReplicas...),
			snapshot: n.snapshot,
			expires:  t + c.cfg.EstateGraceS,
		})
		c.logf("t=%d reserving %d-replica estate of node %d (snapshot t=%d)", t, len(n.snapReplicas), n.id, n.snapClock)
	}
	for _, id := range n.replicas {
		r := c.replicas[id]
		r.State = Migrating
		r.LastNode = r.Node
		r.Node = -1
		r.Retries = 0
		r.NextAttempt = t
		r.Reason = reason
		c.logf("t=%d replica %d migrating: %s", t, id, reason)
	}
	n.replicas = nil
	n.snapshot, n.snapReplicas = nil, nil
}

// applyDegradation sheds the lowest-ranked replicas while fleet
// capacity is below demand — batch class first, then latency-critical
// replicas in ascending priority — and lifts the suspension as soon as
// capacity returns.
func (c *Coordinator) applyDegradation(t int) {
	capacity := 0
	for _, n := range c.nodes {
		if n.coordLive {
			capacity += c.cfg.NodeCapacity
		}
	}
	var live []*Replica
	for _, r := range c.replicas {
		if !r.State.Terminal() {
			live = append(live, r)
		}
	}
	overflow := len(live) - capacity
	shedSet := map[int]bool{}
	if overflow > 0 {
		ranked := append([]*Replica(nil), live...)
		sort.SliceStable(ranked, func(i, j int) bool { return shedRank(ranked[i], ranked[j]) })
		for _, r := range ranked[:overflow] {
			shedSet[r.ID] = true
		}
	}
	for _, r := range live {
		switch {
		case shedSet[r.ID]:
			if !r.Shed {
				r.Shed = true
				r.Reason = "shed: fleet capacity below demand"
				c.ctr.ShedEpisodes++
				c.logf("t=%d shed replica %d (%s prio %d)", t, r.ID, r.Spec.Class, r.Spec.Priority)
			}
			// An unreachable host keeps nominally serving a shed replica;
			// eviction is retried every interval so it lands as soon as
			// the host is reachable (or its lease expires first).
			if r.Node >= 0 {
				n := c.nodes[r.Node]
				if n.alive && !n.partitioned && n.srv != nil {
					if idx := slices.Index(n.replicas, r.ID); idx >= 0 {
						if err := c.evict(n, idx); err == nil {
							r.State = Pending
							r.LastNode = r.Node
							r.Node = -1
						}
					}
				}
			}
		case !shedSet[r.ID] && r.Shed:
			r.Shed = false
			r.NextAttempt = t
			r.Retries = 0
			c.logf("t=%d unshed replica %d", t, r.ID)
		}
	}
}

// restoreEstates attempts warm whole-group failover: an estate whose
// members are all still Migrating moves onto an empty reachable node
// with enough capacity, and every component resumes from the snapshot —
// the learned policy survives the node loss. Lapsed or broken estates
// fall back to individual cold placement.
func (c *Coordinator) restoreEstates(t int) {
	var keep []estate
	for _, es := range c.estates {
		valid := t < es.expires && len(es.ids) <= c.cfg.NodeCapacity
		for _, id := range es.ids {
			r := c.replicas[id]
			if r.State != Migrating || r.Shed {
				valid = false
			}
		}
		if !valid {
			continue // members dead-lettered, shed, placed, or grace lapsed
		}
		target := -1
		for _, n := range c.nodes {
			if n.coordLive && n.lastSeen == t && n.srv == nil && len(n.replicas) == 0 {
				target = n.id
				break
			}
		}
		if target < 0 {
			keep = append(keep, es) // retry while the grace window lasts
			continue
		}
		n := c.nodes[target]
		if err := c.restoreSnapshot(n, es.snapshot, es.ids); err != nil {
			c.logf("t=%d warm restore onto node %d failed: %v", t, target, err)
			continue // snapshot unusable; cold path takes over
		}
		for _, id := range es.ids {
			r := c.replicas[id]
			r.State = Placed
			r.Node = target
			r.Shed = false
			r.Retries = 0
			r.Reason = ""
			r.Migrations++
			r.WarmRestores++
			c.ctr.Migrations++
			c.ctr.WarmRestores++
		}
		c.logf("t=%d warm-restored %d replicas onto node %d", t, len(es.ids), target)
	}
	c.estates = keep
}

// placeReplicas drives individual placement: every unshed Pending or
// Migrating replica whose backoff has elapsed (and that no live estate
// reserves) is placed cold on the least-loaded reachable node with
// spare capacity — or, under static partitioning, only on its home
// node. A failed attempt backs off exponentially; exhausting the retry
// budget dead-letters the replica with the failure recorded.
func (c *Coordinator) placeReplicas(t int) {
	reserved := map[int]bool{}
	for _, es := range c.estates {
		for _, id := range es.ids {
			reserved[id] = true
		}
	}
	var due []*Replica
	for _, r := range c.replicas {
		if (r.State == Pending || r.State == Migrating) && !r.Shed && !reserved[r.ID] && r.NextAttempt <= t {
			due = append(due, r)
		}
	}
	sort.SliceStable(due, func(i, j int) bool { return placeRank(due[i], due[j]) })
	for _, r := range due {
		target := c.pickNode(t, r)
		if target < 0 {
			c.failPlacement(t, r, "no reachable node with capacity")
			continue
		}
		n := c.nodes[target]
		if err := c.place(n, r); err != nil {
			// Only a buggy factory or profile can fail here; treat it
			// like any other failed attempt so the loop stays alive.
			c.failPlacement(t, r, err.Error())
			continue
		}
		wasMigrating := r.State == Migrating
		r.State = Placed
		r.Node = target
		r.Retries = 0
		r.Reason = ""
		if wasMigrating {
			r.Migrations++
			c.ctr.Migrations++
			if target != r.LastNode {
				c.ctr.ColdRestores++
			}
		}
		c.logf("t=%d placed replica %d on node %d", t, r.ID, target)
	}
}

// failPlacement records one failed placement attempt for r: exponential
// backoff while retries remain, terminal dead-letter with the last
// failure recorded once the budget is exhausted.
func (c *Coordinator) failPlacement(t int, r *Replica, cause string) {
	c.ctr.PlacementFails++
	r.Retries++
	if r.Retries > c.cfg.MaxRetries {
		r.State = DeadLetter
		r.DeadStep = t
		r.Node = -1
		r.Reason = fmt.Sprintf("placement retries exhausted (%d attempts, last: %s)", r.Retries, cause)
		c.ctr.DeadLetters++
		c.logf("t=%d replica %d dead-lettered: %s", t, r.ID, r.Reason)
		return
	}
	shift := r.Retries - 1
	if shift > 6 {
		shift = 6
	}
	r.NextAttempt = t + c.cfg.BackoffBase<<shift
	r.Reason = "placement failed: " + cause
	c.logf("t=%d replica %d placement failed (retry %d, next t=%d): %s", t, r.ID, r.Retries, r.NextAttempt, cause)
}

// pickNode selects the placement target for r: the reachable node (a
// valid lease renewed this interval) with the most spare capacity,
// lowest ID breaking ties — or only the home node under static
// partitioning.
func (c *Coordinator) pickNode(t int, r *Replica) int {
	best, bestLoad := -1, c.cfg.NodeCapacity
	for _, n := range c.nodes {
		if !n.coordLive || n.lastSeen != t {
			continue
		}
		if c.cfg.PinReplicas && n.id != r.ID%len(c.nodes) {
			continue
		}
		if len(n.replicas) < bestLoad {
			best, bestLoad = n.id, len(n.replicas)
		}
	}
	return best
}

// stepWorlds advances every live, unfenced node's control loop one
// interval and performs the per-replica accounting: exactly one tick
// per live replica — an Intervals tick (plus a violation when the tail
// target is missed) for replicas served this interval, a DarkIntervals
// tick (always a violation) for everything pending, migrating, shed,
// warming or hosted on a node that is down or unreachable.
func (c *Coordinator) stepWorlds(t int) float64 {
	var energy float64
	ticked := make(map[int]bool, len(c.replicas))

	// Fleet-batched phase: enqueue every phased controller's learning
	// and selection work, then run one shared flush for the whole fleet;
	// each loop remembers that its step owes the FinishDecide half.
	if c.cfg.Flush != nil {
		for _, n := range c.nodes {
			if n.alive && !n.fenced && n.srv != nil {
				n.loop.Prepare()
			}
		}
		c.cfg.Flush()
	}

	for _, n := range c.nodes {
		if !n.alive || n.fenced || n.srv == nil {
			continue
		}
		loads := n.loop.Loads()
		for i, id := range n.replicas {
			r := c.replicas[id]
			loads[i] = 0
			if r.State == Running {
				loads[i] = r.Spec.LoadFrac * service.MustLookup(r.Spec.Service).MaxLoadRPS
			}
		}
		res, out, err := n.loop.Step()
		if out&ctrl.DecidePanicked != 0 {
			c.ctr.DecidePanics++
		}
		if out&ctrl.StepRejected != 0 {
			c.ctr.StepErrors++
		}
		if err != nil {
			// The safe fallback cannot be rejected unless the world
			// itself is broken; freeze the node for this interval.
			continue
		}
		energy += res.EnergyJ

		for i, id := range n.replicas {
			r := c.replicas[id]
			ticked[id] = true
			switch r.State {
			case Running:
				r.Intervals++
				sv := res.Services[i]
				if math.IsNaN(sv.P99Ms) || sv.P99Ms > r.Spec.QoSTargetMs {
					r.Violations++
				}
			default: // Placed: one warm-up interval without load
				r.DarkIntervals++
				r.Violations++
				r.State = Running
			}
		}
	}
	// Everything not served this interval accrues a dark tick.
	for _, r := range c.replicas {
		if r.State.Terminal() || ticked[r.ID] {
			continue
		}
		r.DarkIntervals++
		r.Violations++
		if r.Shed {
			if r.Spec.Class == Batch {
				c.ctr.ShedBatch++
			} else {
				c.ctr.ShedLC++
			}
		}
	}
	return energy
}

// takeSnapshots cuts warm in-memory failover snapshots of every
// reachable node on cadence. Snapshot bytes never leave the coordinator
// process; the durable fleet checkpoint is separate (see Marshal).
func (c *Coordinator) takeSnapshots(t int) {
	if (t+1)%c.cfg.SnapshotEvery != 0 {
		return
	}
	for _, n := range c.nodes {
		if n.coordLive && n.lastSeen == t && n.srv != nil {
			c.takeSnapshot(n)
			c.ctr.SnapshotsTaken++
		}
	}
}

// logf appends a line to the bounded coordinator event log.
func (c *Coordinator) logf(format string, args ...interface{}) {
	const keep = 256
	c.events = append(c.events, fmt.Sprintf(format, args...))
	if len(c.events) > keep {
		c.events = c.events[len(c.events)-keep:]
	}
}

// Events returns a copy of the recent coordinator event log.
func (c *Coordinator) Events() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...)
}
