package faults

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/rng"
)

// NodeEvent is one whole-node fault occurrence in a cluster schedule:
// a crash (world lost, heartbeats stop, node rejoins empty) or a
// partition (node keeps running but its heartbeats are lost).
type NodeEvent struct {
	Kind Kind // NodeCrash or NodePartition
	Node int
	// Start is the first interval the outage covers; Duration counts
	// intervals.
	Start, Duration int
}

// ActiveAt reports whether the event covers interval t.
func (e NodeEvent) ActiveAt(t int) bool { return t >= e.Start && t < e.Start+e.Duration }

// String renders the event compactly.
func (e NodeEvent) String() string {
	return fmt.Sprintf("%v@%d+%d node%d", e.Kind, e.Start, e.Duration, e.Node)
}

// ClusterScenario parameterises a whole-node fault schedule, the fleet
// counterpart of Scenario. Crash episodes are scheduled
// deterministically by period, rotating through the nodes; rate fields
// are expected events per 1000 intervals per node. The zero
// ClusterScenario injects nothing.
type ClusterScenario struct {
	Name string

	// CrashPeriodS, when positive, crashes one node every period
	// (rotating through the nodes), offline for CrashOfflineS intervals
	// (default 20).
	CrashPeriodS  int
	CrashOfflineS int

	// PartitionPeriodS, when positive, partitions one node every period
	// (rotating through the nodes on a different phase than the crash
	// rotation) for PartitionOfflineS intervals (default 20).
	PartitionPeriodS  int
	PartitionOfflineS int

	// CrashPerKs adds rate-scheduled random node crashes on top of the
	// periodic rotation; PartitionPerKs schedules network partitions.
	// Either outage lasts 1..MaxOutageS intervals (default 25).
	CrashPerKs     float64
	PartitionPerKs float64
	MaxOutageS     int

	// QuietAfterS, when positive, stops scheduling new outages at that
	// interval, so a bounded sweep ends with a settle window in which
	// every placement can resolve (the chaos experiment's invariant
	// needs one).
	QuietAfterS int
}

// IsZero reports whether the scenario injects no node faults at all.
func (sc ClusterScenario) IsZero() bool {
	return sc.CrashPeriodS == 0 && sc.PartitionPeriodS == 0 &&
		sc.CrashPerKs == 0 && sc.PartitionPerKs == 0
}

func (sc ClusterScenario) withDefaults() ClusterScenario {
	if sc.CrashPeriodS > 0 && sc.CrashOfflineS <= 0 {
		sc.CrashOfflineS = 20
	}
	if sc.PartitionPeriodS > 0 && sc.PartitionOfflineS <= 0 {
		sc.PartitionOfflineS = 20
	}
	if sc.MaxOutageS <= 0 {
		sc.MaxOutageS = 25
	}
	return sc
}

// NamedCluster returns a built-in whole-node scenario: "none",
// "nodecrash" (periodic rotating node crashes), "partition" (random
// network partitions) or "chaos" (periodic crashes plus random crashes
// and partitions).
func NamedCluster(name string) (ClusterScenario, error) {
	switch name {
	case "none", "":
		return ClusterScenario{Name: "none"}, nil
	case "nodecrash":
		return ClusterScenario{
			Name:          "nodecrash",
			CrashPeriodS:  300,
			CrashOfflineS: 25,
		}, nil
	case "partition":
		return ClusterScenario{
			Name:           "partition",
			PartitionPerKs: 4,
			MaxOutageS:     20,
		}, nil
	case "chaos":
		return ClusterScenario{
			Name:           "chaos",
			CrashPeriodS:   250,
			CrashOfflineS:  25,
			CrashPerKs:     2,
			PartitionPerKs: 3,
			MaxOutageS:     20,
		}, nil
	}
	return ClusterScenario{}, fmt.Errorf("faults: unknown cluster scenario %q (want one of %v)", name, ClusterNames())
}

// MustNamedCluster is NamedCluster for known-good scenario names.
func MustNamedCluster(name string) ClusterScenario {
	sc, err := NamedCluster(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// ClusterNames lists the built-in whole-node scenarios.
func ClusterNames() []string {
	return []string{"none", "nodecrash", "partition", "chaos"}
}

// ClusterInjector turns a ClusterScenario into a concrete, reproducible
// whole-node fault schedule, exactly as Injector does for per-node
// faults: Advance must be called once per interval, in order, and the
// schedule depends only on (scenario, seed, node count) — never on what
// the coordinator or the nodes decide.
type ClusterInjector struct {
	sc    ClusterScenario
	rng   *rng.Rand
	nodes int

	t      int
	active []NodeEvent
	log    []NodeEvent
}

// NewClusterInjector builds an injector for a fleet of the given size.
func NewClusterInjector(sc ClusterScenario, seed int64, nodes int) *ClusterInjector {
	return &ClusterInjector{sc: sc.withDefaults(), rng: rng.New(seed), nodes: nodes}
}

// Advance moves to the next interval and returns the node outages active
// in it. The returned slice is owned by the injector; callers must copy
// it to retain it.
func (inj *ClusterInjector) Advance() []NodeEvent {
	t := inj.t
	inj.t++

	keep := inj.active[:0]
	for _, e := range inj.active {
		if e.ActiveAt(t) {
			keep = append(keep, e)
		}
	}
	inj.active = keep

	quiet := inj.sc.QuietAfterS > 0 && t >= inj.sc.QuietAfterS

	// Rate-scheduled outages, drawn in a fixed order (kind-major, then
	// node) so the schedule is reproducible. Draws happen even in the
	// quiet tail so the RNG position — and therefore a resumed run —
	// does not depend on where the quiet boundary fell.
	for n := 0; n < inj.nodes; n++ {
		if inj.draw(inj.sc.CrashPerKs) && !quiet {
			inj.add(NodeEvent{Kind: NodeCrash, Node: n, Start: t, Duration: inj.duration()})
		}
	}
	for n := 0; n < inj.nodes; n++ {
		if inj.draw(inj.sc.PartitionPerKs) && !quiet {
			inj.add(NodeEvent{Kind: NodePartition, Node: n, Start: t, Duration: inj.duration()})
		}
	}

	// Deterministic periodic episodes, rotating through nodes; the
	// partition rotation runs one node ahead of the crash rotation so
	// coincident periods hit different victims.
	if p := inj.sc.CrashPeriodS; p > 0 && inj.nodes > 0 && t > 0 && t%p == 0 && !quiet {
		n := (t/p - 1) % inj.nodes
		inj.add(NodeEvent{Kind: NodeCrash, Node: n, Start: t, Duration: inj.sc.CrashOfflineS})
	}
	if p := inj.sc.PartitionPeriodS; p > 0 && inj.nodes > 0 && t > 0 && t%p == 0 && !quiet {
		n := (t / p) % inj.nodes
		inj.add(NodeEvent{Kind: NodePartition, Node: n, Start: t, Duration: inj.sc.PartitionOfflineS})
	}
	return inj.active
}

// Clock returns the number of intervals advanced so far.
func (inj *ClusterInjector) Clock() int { return inj.t }

// Log returns every outage ever scheduled, in schedule order.
func (inj *ClusterInjector) Log() []NodeEvent { return append([]NodeEvent(nil), inj.log...) }

func (inj *ClusterInjector) draw(ratePerKs float64) bool {
	return ratePerKs > 0 && inj.rng.Float64() < ratePerKs/1000
}

func (inj *ClusterInjector) duration() int {
	return 1 + inj.rng.Intn(inj.sc.MaxOutageS)
}

func (inj *ClusterInjector) add(e NodeEvent) {
	inj.active = append(inj.active, e)
	inj.log = append(inj.log, e)
}

func encodeNodeEvent(e *checkpoint.Encoder, ev NodeEvent) {
	e.Int(int(ev.Kind))
	e.Int(ev.Node)
	e.Int(ev.Start)
	e.Int(ev.Duration)
}

func decodeNodeEvent(d *checkpoint.Decoder) (NodeEvent, error) {
	ev := NodeEvent{
		Kind:     Kind(d.Int()),
		Node:     d.Int(),
		Start:    d.Int(),
		Duration: d.Int(),
	}
	if err := d.Err(); err != nil {
		return NodeEvent{}, err
	}
	if ev.Kind != NodeCrash && ev.Kind != NodePartition {
		return NodeEvent{}, fmt.Errorf("faults: kind %v is not a node fault", ev.Kind)
	}
	return ev, nil
}

const nodeEventEncodedBytes = 4 * 8

// EncodeState writes the injector's schedule position: interval clock,
// active outages, the full log and the RNG position. The scenario is
// configuration, re-supplied at construction; its name goes in as a
// fingerprint.
func (inj *ClusterInjector) EncodeState(e *checkpoint.Encoder) {
	e.String(inj.sc.Name)
	e.Int(inj.nodes)
	e.Int(inj.t)
	checkpoint.EncodeList(e, inj.active, encodeNodeEvent)
	checkpoint.EncodeList(e, inj.log, encodeNodeEvent)
	inj.rng.Source().EncodeState(e)
}

// DecodeState restores schedule position into an injector built with
// the same scenario and fleet size.
func (inj *ClusterInjector) DecodeState(d *checkpoint.Decoder) error {
	name := d.String()
	nodes := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if name != inj.sc.Name {
		return fmt.Errorf("faults: checkpoint is for cluster scenario %q, injector runs %q", name, inj.sc.Name)
	}
	if nodes != inj.nodes {
		return fmt.Errorf("faults: checkpoint covers %d nodes, injector has %d", nodes, inj.nodes)
	}
	inj.t = d.Int()
	var err error
	if inj.active, err = checkpoint.DecodeList(d, nodeEventEncodedBytes, decodeNodeEvent); err != nil {
		return err
	}
	if inj.log, err = checkpoint.DecodeList(d, nodeEventEncodedBytes, decodeNodeEvent); err != nil {
		return err
	}
	return inj.rng.Source().DecodeState(d)
}
