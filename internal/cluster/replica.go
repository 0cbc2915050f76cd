package cluster

import (
	"cmp"
	"fmt"

	"github.com/twig-sched/twig/internal/sim/service"
)

// Class is a replica's QoS class, the unit of the degradation policy:
// when live capacity drops below demand the coordinator sheds batch
// replicas first, then latency-critical replicas in ascending Priority
// order.
type Class uint8

const (
	// LC is a latency-critical replica with a tail-latency target.
	LC Class = iota
	// Batch is a best-effort replica: first to be shed, last to return.
	Batch
)

// String returns the lower-case class name used in metrics and status.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "lc"
}

// ReplicaSpec is the admission request for one service replica.
type ReplicaSpec struct {
	// Service names a built-in service profile.
	Service string
	// LoadFrac is the offered load as a fraction of the profile's
	// saturation RPS.
	LoadFrac float64
	// QoSTargetMs is the tail-latency target violations are counted
	// against.
	QoSTargetMs float64
	// Class selects the degradation class; Priority orders shedding
	// within the LC class (lower priorities shed first).
	Class    Class
	Priority int
}

// check applies the service-request rule to the spec, each value by
// service, the package that owns it, and refuses an unknown class.
func (spec ReplicaSpec) check() error {
	_, err := service.Lookup(spec.Service)
	if err == nil {
		err = service.CheckLoad(spec.LoadFrac)
	}
	if err == nil {
		err = service.CheckQoS(spec.QoSTargetMs)
	}
	if err == nil && spec.Class > Batch {
		err = fmt.Errorf("cluster: unknown QoS class %d", spec.Class)
	}
	return err
}

// ReplicaState is a position in the placement state machine:
//
//	Pending ──place──▶ Placed ──next interval──▶ Running
//	   ▲                                            │
//	   │ (shed / placement retry)             node dies (lease expires)
//	   │                                            ▼
//	   └───────────place on new node◀────────── Migrating ──retries
//	                                                        exhausted──▶ DeadLetter
type ReplicaState uint8

const (
	// Pending: admitted (or shed) and waiting for a placement slot.
	Pending ReplicaState = iota
	// Placed: hosted by a node, warming for one interval before load.
	Placed
	// Running: serving load under the node's controller.
	Running
	// Migrating: its node's lease expired; waiting for failover.
	Migrating
	// DeadLetter: placement retries exhausted; terminal, with Reason set.
	DeadLetter

	numReplicaStates = int(DeadLetter) + 1
)

// String returns the lower-case state name.
func (s ReplicaState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Placed:
		return "placed"
	case Running:
		return "running"
	case Migrating:
		return "migrating"
	case DeadLetter:
		return "dead-letter"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Terminal reports whether the state can never be left.
func (s ReplicaState) Terminal() bool { return s == DeadLetter }

// Replica is one managed service replica: its spec, placement position,
// retry/backoff bookkeeping and the QoS accounting it carries across
// migrations. All fields are owned by the coordinator; readers get
// copies.
type Replica struct {
	ID   int
	Spec ReplicaSpec

	State ReplicaState
	// Node is the hosting node while Placed/Running (-1 otherwise);
	// LastNode the node it was last hosted on (-1 before first
	// placement), which static partitioning and the migration counter
	// compare against.
	Node     int
	LastNode int
	// Shed marks a replica suspended by the degradation policy; a shed
	// replica is never placed until capacity returns.
	Shed bool
	// Retries counts failed placement attempts since the replica last
	// ran; NextAttempt is the first interval the next attempt may run
	// (deterministic exponential backoff).
	Retries     int
	NextAttempt int
	// Reason records why the replica dead-lettered, or the most recent
	// placement failure / shed cause.
	Reason string

	// AdmitStep is the coordinator interval the replica was admitted at;
	// DeadStep the interval it dead-lettered (-1 while live).
	AdmitStep int
	DeadStep  int

	// Carried accounting, preserved across every migration: every
	// interval a live replica exists it accrues exactly one tick, either
	// Intervals (hosted on a stepped node) or DarkIntervals (pending,
	// migrating, shed, or on a node that is down). Violations counts
	// intervals over the QoS target; dark intervals always count as
	// violations. Migrations counts failovers onto a new node;
	// WarmRestores the subset restored from a snapshot.
	Intervals     int
	Violations    int
	DarkIntervals int
	Migrations    int
	WarmRestores  int

	seed int64
}

// Ticks returns the number of accounted intervals. For every replica
// the invariant Ticks == (DeadStep or now) − AdmitStep holds; the chaos
// harness asserts it at every sweep end.
func (r *Replica) Ticks() int { return r.Intervals + r.DarkIntervals }

// shedRank orders replicas for the degradation policy, as a comparison
// for slices.SortStableFunc: smaller ranks shed first. Batch replicas
// shed before any LC replica; within a class lower priorities shed
// first and younger replicas break ties.
func shedRank(a, b *Replica) int {
	if a.Spec.Class != b.Spec.Class {
		return classFirst(a, b, Batch)
	}
	if c := cmp.Compare(a.Spec.Priority, b.Spec.Priority); c != 0 {
		return c
	}
	return cmp.Compare(b.ID, a.ID)
}

// placeRank orders replicas for placement, as a comparison for
// slices.SortStableFunc: the most important first. LC before batch,
// higher priorities first, older replicas break ties.
func placeRank(a, b *Replica) int {
	if a.Spec.Class != b.Spec.Class {
		return classFirst(a, b, LC)
	}
	if c := cmp.Compare(b.Spec.Priority, a.Spec.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// classFirst compares two replicas of different classes: the one of
// class first goes first.
func classFirst(a, b *Replica, first Class) int {
	switch first {
	case a.Spec.Class:
		return -1
	case b.Spec.Class:
		return 1
	}
	return 0
}
