package faults

import (
	"reflect"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

func TestClusterNamedScenarios(t *testing.T) {
	for _, name := range ClusterNames() {
		sc, err := NamedCluster(name)
		if err != nil {
			t.Fatalf("NamedCluster(%q): %v", name, err)
		}
		if name != "none" && sc.IsZero() {
			t.Errorf("scenario %q injects nothing", name)
		}
	}
	if _, err := NamedCluster("flood"); err == nil {
		t.Fatal("NamedCluster accepted an unknown name")
	}
}

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
	if len(a.Log()) == 0 {
		t.Fatal("chaos scenario scheduled no node events in 2000 intervals")
	}
	c := NewClusterInjector(sc, 8, 4)
	for i := 0; i < 2000; i++ {
		c.Advance()
	}
	if reflect.DeepEqual(a.Log(), c.Log()) {
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
	for _, e := range inj.Log() {
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
	for _, e := range inj.Log() {
		if e.Start >= 500 {
			t.Fatalf("event %v scheduled after quiet boundary", e)
		}
	}
	// The tail is genuinely quiet once pre-boundary outages drain.
	if got := inj.Advance(); len(got) != 0 {
		t.Fatalf("outages still active at interval 1000: %v", got)
	}
}

func TestClusterInjectorCheckpointRoundTrip(t *testing.T) {
	sc := MustNamedCluster("chaos")
	ref := NewClusterInjector(sc, 5, 4)
	cut := NewClusterInjector(sc, 5, 4)
	for i := 0; i < 600; i++ {
		ref.Advance()
		cut.Advance()
	}

	e := checkpoint.NewEncoder()
	cut.EncodeState(e)
	restored := NewClusterInjector(sc, 999, 4) // wrong seed: state must win
	d := checkpoint.NewDecoder(e.Bytes())
	if err := restored.DecodeState(d); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after decode", d.Remaining())
	}

	for i := 0; i < 600; i++ {
		want := append([]NodeEvent(nil), ref.Advance()...)
		got := append([]NodeEvent(nil), restored.Advance()...)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("interval %d after restore: %v, want %v", 600+i, got, want)
		}
	}
	if !reflect.DeepEqual(ref.Log(), restored.Log()) {
		t.Fatal("restored injector's log diverged from the reference")
	}
}

func TestClusterInjectorDecodeRejectsMismatch(t *testing.T) {
	src := NewClusterInjector(MustNamedCluster("nodecrash"), 1, 4)
	src.Advance()
	e := checkpoint.NewEncoder()
	src.EncodeState(e)

	wrongScenario := NewClusterInjector(MustNamedCluster("chaos"), 1, 4)
	if err := wrongScenario.DecodeState(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("DecodeState accepted a checkpoint for a different scenario")
	}
	wrongNodes := NewClusterInjector(MustNamedCluster("nodecrash"), 1, 8)
	if err := wrongNodes.DecodeState(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("DecodeState accepted a checkpoint for a different fleet size")
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
