package daemon

import (
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim/faults"
)

// sectionEngine is a guarded, fault-armed engine at tiny scale: every
// section a daemon checkpoint can hold is present.
func sectionEngine(t testing.TB) *Engine {
	t.Helper()
	sc := faults.MustNamed("hostile")
	e, err := New(Config{Scale: tinyScale(), Seed: 3, Guard: true, Faults: &sc},
		[]AdmitRequest{{Name: "masstree", Load: 0.5}, {Name: "xapian", Load: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sections lists e's checkpoint sections in container order, the daemon
// section first as a fresh value to decode into.
func (e *Engine) sections() []checkpoint.Checkpointable {
	return []checkpoint.Checkpointable{&daemonState{}, e.srv, e.mgr, e.drainer, e.guard}
}

// FuzzSectionDecode feeds arbitrary payloads to the DecodeState of every
// section of a daemon checkpoint — daemon registry and loop, simulator,
// manager (monitor, agent, replay), drainer and guard — each decoding
// into a freshly built engine. It must return, error or not, without
// panicking or allocating past what the payload can hold. The seeds are
// the sections of a real checkpoint cut after learning has started and
// faults have fired.
func FuzzSectionDecode(f *testing.F) {
	e := sectionEngine(f)
	for e.Next() < 80 {
		if _, err := e.Step(); err != nil {
			f.Fatal(err)
		}
	}
	_, secs, err := checkpoint.DecodeFile(e.marshal(nil))
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range e.sections() {
		if secs[i].Name != c.CheckpointName() {
			f.Fatalf("section %d is %q, want %q", i, secs[i].Name, c.CheckpointName())
		}
		if err := sectionEngine(f).sections()[i].DecodeState(checkpoint.NewDecoder(secs[i].Payload)); err != nil {
			f.Fatalf("seed section %q does not decode into a fresh engine: %v", secs[i].Name, err)
		}
		f.Add(uint8(i), secs[i].Payload)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		comps := sectionEngine(t).sections()
		_ = comps[int(which)%len(comps)].DecodeState(checkpoint.NewDecoder(payload))
	})
}

// The smallest registry entry the encoder writes is at least the
// minimum the daemon section bounds its count by.
func TestEntryBytesFitEncoder(t *testing.T) {
	size := func(st *daemonState) int {
		e := checkpoint.NewEncoder()
		st.EncodeState(e)
		return len(e.Bytes())
	}
	base := size(&daemonState{loop: &ctrl.Loop{}})
	if got := size(&daemonState{loop: &ctrl.Loop{}, entries: []persistedEntry{{}}}) - base; got < entryBytes {
		t.Fatalf("a zero entry encodes to %d bytes, the decoder demands %d", got, entryBytes)
	}
}
