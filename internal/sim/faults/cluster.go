package faults

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
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

// clusterScenarios are the built-in whole-node scenarios, in the order
// ClusterNames lists them: "none", "nodecrash" (periodic rotating node
// crashes), "partition" (random network partitions) and "chaos"
// (periodic crashes plus random crashes and partitions).
var clusterScenarios = []ClusterScenario{
	{Name: "none"},
	{Name: "nodecrash", CrashPeriodS: 300, CrashOfflineS: 25},
	{Name: "partition", PartitionPerKs: 4, MaxOutageS: 20},
	{Name: "chaos", CrashPeriodS: 250, CrashOfflineS: 25, CrashPerKs: 2, PartitionPerKs: 3, MaxOutageS: 20},
}

// NamedCluster returns the built-in whole-node scenario of that name;
// "" is "none".
func NamedCluster(name string) (ClusterScenario, error) {
	if name == "" {
		name = "none"
	}
	for _, sc := range clusterScenarios {
		if sc.Name == name {
			return sc, nil
		}
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
	names := make([]string, len(clusterScenarios))
	for i, sc := range clusterScenarios {
		names[i] = sc.Name
	}
	return names
}

// ClusterInjector turns a ClusterScenario into a concrete, reproducible
// whole-node fault schedule, exactly as Injector does for per-node
// faults: Advance must be called once per interval, in order, and the
// schedule depends only on (scenario, seed, node count) — never on what
// the coordinator or the nodes decide. Its victims are the nodes [0, n).
type ClusterInjector struct {
	schedule[NodeEvent]
	sc ClusterScenario
}

// NewClusterInjector builds an injector for a fleet of the given size.
func NewClusterInjector(sc ClusterScenario, seed int64, nodes int) *ClusterInjector {
	sc = sc.withDefaults()
	return &ClusterInjector{schedule: newSchedule[NodeEvent](seed, sc.Name, nodes, sc.MaxOutageS), sc: sc}
}

// Advance moves to the next interval and returns the node outages active
// in it. The returned slice is owned by the injector; callers must copy
// it to retain it.
func (inj *ClusterInjector) Advance() []NodeEvent {
	t := inj.tick()
	quiet := inj.sc.QuietAfterS > 0 && t >= inj.sc.QuietAfterS

	// Rate-scheduled outages, drawn in a fixed order (kind-major, then
	// node) so the schedule is reproducible. Draws happen even in the
	// quiet tail so the RNG position — and therefore a resumed run —
	// does not depend on where the quiet boundary fell.
	for node := 0; node < inj.n; node++ {
		if inj.draw(inj.sc.CrashPerKs) && !quiet {
			inj.add(NodeEvent{Kind: NodeCrash, Node: node, Start: t, Duration: inj.duration()})
		}
	}
	for node := 0; node < inj.n; node++ {
		if inj.draw(inj.sc.PartitionPerKs) && !quiet {
			inj.add(NodeEvent{Kind: NodePartition, Node: node, Start: t, Duration: inj.duration()})
		}
	}

	// Deterministic periodic episodes, rotating through nodes; the
	// partition rotation runs one node ahead of the crash rotation so
	// coincident periods hit different victims.
	if p := inj.sc.CrashPeriodS; p > 0 && inj.n > 0 && t > 0 && t%p == 0 && !quiet {
		node := (t/p - 1) % inj.n
		inj.add(NodeEvent{Kind: NodeCrash, Node: node, Start: t, Duration: inj.sc.CrashOfflineS})
	}
	if p := inj.sc.PartitionPeriodS; p > 0 && inj.n > 0 && t > 0 && t%p == 0 && !quiet {
		node := (t / p) % inj.n
		inj.add(NodeEvent{Kind: NodePartition, Node: node, Start: t, Duration: inj.sc.PartitionOfflineS})
	}
	return inj.active
}

func encodeNodeEvent(e *checkpoint.Encoder, ev NodeEvent) {
	e.Int(int(ev.Kind))
	e.Int(ev.Node)
	e.Int(ev.Start)
	e.Int(ev.Duration)
}

// decodeEvent reads one NodeEvent and refuses one this injector could
// not have drawn: a kind other than a node fault, or a node outside the
// fleet, which the coordinator would index its nodes by.
func (inj *ClusterInjector) decodeEvent(d *checkpoint.Decoder) (NodeEvent, error) {
	ev := NodeEvent{
		Kind:     Kind(d.Int()),
		Node:     d.Int(),
		Start:    d.Int(),
		Duration: d.Int(),
	}
	if err := d.Err(); err != nil {
		return NodeEvent{}, err
	}
	if ev.Kind != NodeCrash && ev.Kind != NodePartition || ev.Node < 0 || ev.Node >= inj.n {
		return NodeEvent{}, fmt.Errorf("faults: checkpoint holds %v, which this injector cannot draw", ev)
	}
	return ev, nil
}

const nodeEventEncodedBytes = 4 * 8

// EncodeState writes the injector's schedule position: interval clock,
// active outages, the full log and the RNG position, behind the
// scenario's name and the fleet size as a fingerprint.
func (inj *ClusterInjector) EncodeState(e *checkpoint.Encoder) { inj.encodeState(e, encodeNodeEvent) }

// DecodeState restores schedule position into an injector built with
// the same scenario and fleet size. It refuses an outage this injector
// could not have drawn.
func (inj *ClusterInjector) DecodeState(d *checkpoint.Decoder) error {
	return inj.decodeState(d, nodeEventEncodedBytes, inj.decodeEvent)
}
