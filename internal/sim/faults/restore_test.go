package faults

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// stateful is what the codec tests need of either injector.
type stateful interface {
	EncodeState(*checkpoint.Encoder)
	DecodeState(*checkpoint.Decoder) error
}

// advance steps either injector once and returns a copy of its active
// events, nil when there are none.
func advance(inj stateful) any {
	switch inj := inj.(type) {
	case *Injector:
		return append([]Event(nil), inj.Advance()...)
	case *ClusterInjector:
		return append([]NodeEvent(nil), inj.Advance()...)
	}
	panic("unknown injector")
}

func logOf(inj stateful) any {
	switch inj := inj.(type) {
	case *Injector:
		return inj.log
	case *ClusterInjector:
		return inj.log
	}
	panic("unknown injector")
}

func encode(inj stateful) []byte {
	e := checkpoint.NewEncoder()
	inj.EncodeState(e)
	return e.Bytes()
}

// injectorCases build the two injectors the codec tests run over: a node
// schedule ("hostile", 2 services, managed cores 18–35) and a fleet
// schedule ("chaos", 4 nodes).
var injectorCases = []struct {
	name  string
	fresh func(seed int64) stateful
	// wrongScenario and wrongVictims build an injector the other's
	// checkpoint must not restore into.
	wrongScenario, wrongVictims func() stateful
}{
	{
		name:          "node",
		fresh:         func(seed int64) stateful { return NewInjector(MustNamed("hostile"), seed, 2, cores()) },
		wrongScenario: func() stateful { return NewInjector(MustNamed("sensor"), 1, 2, cores()) },
		wrongVictims:  func() stateful { return NewInjector(MustNamed("hostile"), 1, 3, cores()) },
	},
	{
		name:          "fleet",
		fresh:         func(seed int64) stateful { return NewClusterInjector(MustNamedCluster("chaos"), seed, 4) },
		wrongScenario: func() stateful { return NewClusterInjector(MustNamedCluster("nodecrash"), 1, 4) },
		wrongVictims:  func() stateful { return NewClusterInjector(MustNamedCluster("chaos"), 1, 8) },
	},
}

// checkNamedTable checks one scenario table: its names come in a fixed
// order (twigd's flag help prints them), each name returns its own
// scenario, "" is "none", and an unknown name's error lists the table.
func checkNamedTable(t *testing.T, names, want []string, named func(string) (string, bool, error)) {
	t.Helper()
	if !slices.Equal(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
	for _, n := range names {
		got, zero, err := named(n)
		if err != nil || got != n {
			t.Errorf("named(%q) = %q, %v", n, got, err)
		}
		if zero != (n == "none") {
			t.Errorf("named(%q).IsZero() = %v", n, zero)
		}
	}
	if got, _, err := named(""); err != nil || got != "none" {
		t.Errorf(`named("") = %q, %v; want "none"`, got, err)
	}
	_, _, err := named("gremlins")
	if err == nil {
		t.Fatalf("%v: an unknown name resolved", want)
	}
	for _, n := range want {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error %q does not list %q", err, n)
		}
	}
}

// The node scenario table: Named and Names.
func TestNamedUnknown(t *testing.T) {
	checkNamedTable(t, Names(),
		[]string{"none", "sensor", "actuator", "crash", "flashcrowd", "hostile"},
		func(n string) (string, bool, error) { sc, err := Named(n); return sc.Name, sc.IsZero(), err })
}

// The fleet scenario table: NamedCluster and ClusterNames.
func TestClusterNamedScenarios(t *testing.T) {
	checkNamedTable(t, ClusterNames(),
		[]string{"none", "nodecrash", "partition", "chaos"},
		func(n string) (string, bool, error) { sc, err := NamedCluster(n); return sc.Name, sc.IsZero(), err })
}

// A restored injector re-encodes to the bytes it was restored from and
// replays the reference's schedule and log from the cut on, whatever
// seed it was built with.
func TestInjectorCheckpointRoundTrip(t *testing.T) {
	for _, tc := range injectorCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, cut := tc.fresh(5), tc.fresh(5)
			for i := 0; i < 600; i++ {
				advance(ref)
				advance(cut)
			}
			enc := encode(cut)
			restored := tc.fresh(999) // wrong seed: state must win
			d := checkpoint.NewDecoder(enc)
			if err := restored.DecodeState(d); err != nil {
				t.Fatalf("DecodeState: %v", err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("%d trailing bytes after decode", d.Remaining())
			}
			if !bytes.Equal(encode(restored), enc) {
				t.Fatal("restored injector re-encodes to other bytes")
			}
			for i := 0; i < 600; i++ {
				if want, got := advance(ref), advance(restored); !reflect.DeepEqual(want, got) {
					t.Fatalf("interval %d after restore: %v, want %v", 600+i, got, want)
				}
			}
			if !reflect.DeepEqual(logOf(ref), logOf(restored)) {
				t.Fatal("restored injector's log diverged from the reference")
			}
		})
	}
}

func TestInjectorDecodeRejectsMismatch(t *testing.T) {
	for _, tc := range injectorCases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.fresh(1)
			advance(src)
			enc := encode(src)
			if err := tc.wrongScenario().DecodeState(checkpoint.NewDecoder(enc)); err == nil {
				t.Error("DecodeState accepted a checkpoint for a different scenario")
			}
			if err := tc.wrongVictims().DecodeState(checkpoint.NewDecoder(enc)); err == nil {
				t.Error("DecodeState accepted a checkpoint for a different victim count")
			}
		})
	}
}

// A checkpoint that passes its CRC can still name a victim the restored
// world lacks; each such event is refused at decode, naming it. None of
// these is ever stepped: the simulator or coordinator would index out
// of range, and a +Inf spike would queue arrivals until memory ran out.
func TestDecodeRefusesImpossibleVictims(t *testing.T) {
	node := func(k Kind, svc, core, ctr int, mag float64) Event {
		return Event{Kind: k, Service: svc, Core: core, Counter: ctr, Start: 49, Duration: 3, Magnitude: mag}
	}
	for _, tc := range []struct {
		name  string
		fleet bool // plant ev in a fleet schedule, not node in a node one
		node  Event
		ev    NodeEvent
	}{
		{name: "service past k", node: node(PMCDropout, 99, -1, -1, 0)},
		{name: "negative service", node: node(LatencyStale, -1, -1, -1, 0)},
		{name: "crash past k", node: node(ServiceCrash, 2, -1, -1, 0)},
		{name: "per-service kind names a core", node: node(LatencyDropout, 0, 20, -1, 0)},
		{name: "negative core", node: node(CoreFail, -1, -7, -1, 0)},
		{name: "unmanaged core", node: node(CoreFail, -1, 5, -1, 0)},
		{name: "counter past the sample", node: node(PMCCorrupt, 0, -1, 1<<20, 0)},
		{name: "negative counter", node: node(PMCCorrupt, 1, -1, -1, 0)},
		{name: "spike below 100×", node: node(PMCCorrupt, 0, -1, 2, 50)},
		{name: "spike at 1000×", node: node(PMCCorrupt, 0, -1, 2, 1000)},
		{name: "NaN spike", node: node(PMCCorrupt, 0, -1, 2, math.NaN())},
		{name: "infinite load spike", node: node(LoadSpike, 0, -1, -1, math.Inf(1))},
		{name: "load spike off the factor", node: node(LoadSpike, 1, -1, -1, 4)},
		{name: "machine fault names a service", node: node(RAPLFail, 0, -1, -1, 0)},
		{name: "machine fault names a core", node: node(ActuationDrop, -1, 20, -1, 0)},
		{name: "node kind in a node schedule", node: node(NodeCrash, -1, -1, -1, 0)},
		{name: "unknown kind", node: node(numKinds, 0, -1, -1, 0)},
		{name: "node past the fleet", fleet: true, ev: NodeEvent{Kind: NodeCrash, Node: 42, Start: 49, Duration: 3}},
		{name: "negative node", fleet: true, ev: NodeEvent{Kind: NodePartition, Node: -1, Start: 49, Duration: 3}},
		{name: "node schedule kind in a fleet", fleet: true, ev: NodeEvent{Kind: PMCDropout, Node: 0, Start: 49, Duration: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src, dst stateful
			want := ""
			if !tc.fleet {
				inj := NewInjector(MustNamed("hostile"), 3, 2, cores())
				for i := 0; i < 50; i++ {
					inj.Advance()
				}
				inj.active = append(inj.active, tc.node)
				src, dst, want = inj, NewInjector(MustNamed("hostile"), 3, 2, cores()), tc.node.Kind.String()+"@49+3"
			} else {
				inj := NewClusterInjector(MustNamedCluster("chaos"), 3, 3)
				for i := 0; i < 50; i++ {
					inj.Advance()
				}
				inj.active = append(inj.active, tc.ev)
				src, dst, want = inj, NewClusterInjector(MustNamedCluster("chaos"), 3, 3), tc.ev.String()
			}
			err := dst.DecodeState(checkpoint.NewDecoder(encode(src)))
			if err == nil {
				t.Fatal("DecodeState accepted the event")
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		})
	}
}

// indexable reports whether a consumer can apply ev: the simulator
// indexes its services, its managed cores and a sample's counters by
// what an event names, and multiplies the offered load by a spike.
func indexable(ev Event, k int, managed []int) bool {
	switch ev.Kind {
	case RAPLFail, ActuationDrop:
		return true
	case CoreFail:
		return slices.Contains(managed, ev.Core)
	case PMCDropout, LatencyDropout, LatencyStale, ServiceCrash:
		return ev.Service >= 0 && ev.Service < k
	case PMCCorrupt:
		return ev.Service >= 0 && ev.Service < k && ev.Counter >= 0 && ev.Counter < int(pmc.NumCounters)
	case LoadSpike:
		return ev.Service >= 0 && ev.Service < k && ev.Magnitude > 0 && !math.IsInf(ev.Magnitude, 0)
	}
	return false
}

// boundDrawCount takes the stream's draw count in payload, where the
// schedule codec lays it out (behind the fingerprint, the clock, both
// event lists and the seed), modulo 2¹³. A restore replays that many
// draws, up to 2³³ of them, which would spend seconds an input on the
// generator alone.
func boundDrawCount(payload []byte, eventBytes int) []byte {
	d := checkpoint.NewDecoder(payload)
	_, _, _ = d.String(), d.Int(), d.Int()
	for range 2 {
		for range d.Count(eventBytes) * eventBytes / 8 {
			d.U64()
		}
	}
	d.I64()
	if d.Err() != nil || d.Remaining() < 8 {
		return payload
	}
	out := slices.Clone(payload)
	at := len(out) - d.Remaining()
	binary.LittleEndian.PutUint64(out[at:], binary.LittleEndian.Uint64(out[at:])%(1<<13))
	return out
}

// FuzzInjectorDecode decodes arbitrary bytes, their draw count bounded,
// into a fresh node or fleet injector. Whatever decodes names only
// victims its consumers can index, and so does every event of the next
// 20 intervals.
func FuzzInjectorDecode(f *testing.F) {
	const k, nodes = 2, 4
	fresh := func(which uint8) stateful {
		if which%2 == 0 {
			return NewInjector(MustNamed("hostile"), 1, k, cores())
		}
		return NewClusterInjector(MustNamedCluster("chaos"), 1, nodes)
	}
	// Each seed is a real encoding after 200 intervals or more: on until
	// an event is active, so the fuzzer has one to mutate.
	for which := uint8(0); which < 2; which++ {
		inj := fresh(which)
		active := advance(inj)
		for i := 1; i < 200 || reflect.ValueOf(active).Len() == 0; i++ {
			active = advance(inj)
		}
		f.Add(which, encode(inj))
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		inj := fresh(which)
		eventBytes := eventEncodedBytes
		if _, fleet := inj.(*ClusterInjector); fleet {
			eventBytes = nodeEventEncodedBytes
		}
		if inj.DecodeState(checkpoint.NewDecoder(boundDrawCount(payload, eventBytes))) != nil {
			return
		}
		check := func(when string) {
			switch inj := inj.(type) {
			case *Injector:
				for _, ev := range inj.active {
					if !indexable(ev, k, cores()) {
						t.Fatalf("%s: %#v", when, ev)
					}
				}
			case *ClusterInjector:
				for _, ev := range inj.active {
					if ev.Kind != NodeCrash && ev.Kind != NodePartition || ev.Node < 0 || ev.Node >= nodes {
						t.Fatalf("%s: %#v", when, ev)
					}
				}
			}
		}
		check("restored")
		for i := 0; i < 20; i++ {
			advance(inj)
			check("advanced")
		}
	})
}
