package faults

import (
	"reflect"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

func TestClusterInjectorDeterministic(t *testing.T) {
	sc := MustNamedCluster("chaos")
	a := NewClusterInjector(sc, 7, 4)
	b := NewClusterInjector(sc, 7, 4)
	for i := 0; i < 2000; i++ {
		ea := append([]NodeEvent(nil), a.Advance()...)
		eb := append([]NodeEvent(nil), b.Advance()...)
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("interval %d: schedules diverge: %v vs %v", i, ea, eb)
		}
	}
	if len(a.log) == 0 {
		t.Fatal("chaos scenario scheduled no node events in 2000 intervals")
	}
	c := NewClusterInjector(sc, 8, 4)
	for i := 0; i < 2000; i++ {
		c.Advance()
	}
	if reflect.DeepEqual(a.log, c.log) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestClusterInjectorCoversAllNodesAndKinds(t *testing.T) {
	inj := NewClusterInjector(MustNamedCluster("chaos"), 3, 3)
	for i := 0; i < 3000; i++ {
		inj.Advance()
	}
	seenNode := map[int]bool{}
	seenKind := map[Kind]bool{}
	for _, e := range inj.log {
		seenNode[e.Node] = true
		seenKind[e.Kind] = true
		if e.Node < 0 || e.Node >= 3 {
			t.Fatalf("event %v targets node out of range", e)
		}
		if e.Duration <= 0 {
			t.Fatalf("event %v has non-positive duration", e)
		}
	}
	for n := 0; n < 3; n++ {
		if !seenNode[n] {
			t.Errorf("node %d never faulted in 3000 chaos intervals", n)
		}
	}
	if !seenKind[NodeCrash] || !seenKind[NodePartition] {
		t.Errorf("kinds seen %v; want both node-crash and node-partition", seenKind)
	}
}

func TestClusterInjectorQuietTail(t *testing.T) {
	sc := MustNamedCluster("chaos")
	sc.QuietAfterS = 500
	inj := NewClusterInjector(sc, 11, 4)
	for i := 0; i < 1000; i++ {
		inj.Advance()
	}
	for _, e := range inj.log {
		if e.Start >= 500 {
			t.Fatalf("event %v scheduled after quiet boundary", e)
		}
	}
	// The tail is genuinely quiet once pre-boundary outages drain.
	if got := inj.Advance(); len(got) != 0 {
		t.Fatalf("outages still active at interval 1000: %v", got)
	}
}

// The smallest fault and node-fault events the encoders write are at
// least the minima the injectors' event lists are bounded by.
func TestEventBytesFitEncoder(t *testing.T) {
	e := checkpoint.NewEncoder()
	encodeEvent(e, Event{})
	if got := len(e.Bytes()); got < eventEncodedBytes {
		t.Errorf("a zero Event encodes to %d bytes, the decoder demands %d", got, eventEncodedBytes)
	}
	e = checkpoint.NewEncoder()
	encodeNodeEvent(e, NodeEvent{})
	if got := len(e.Bytes()); got < nodeEventEncodedBytes {
		t.Errorf("a zero NodeEvent encodes to %d bytes, the decoder demands %d", got, nodeEventEncodedBytes)
	}
}
