package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
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
	for i, c := range e.sections(&daemonState{}) {
		if secs[i].Name != c.CheckpointName() {
			f.Fatalf("section %d is %q, want %q", i, secs[i].Name, c.CheckpointName())
		}
		if err := sectionEngine(f).sections(&daemonState{})[i].DecodeState(checkpoint.NewDecoder(secs[i].Payload)); err != nil {
			f.Fatalf("seed section %q does not decode into a fresh engine: %v", secs[i].Name, err)
		}
		f.Add(uint8(i), secs[i].Payload)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		comps := sectionEngine(t).sections(&daemonState{})
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
	if got := size(&daemonState{loop: &ctrl.Loop{}, entries: []*entry{{lc: &Lifecycle{}}}}) - base; got < entryBytes {
		t.Fatalf("a zero entry encodes to %d bytes, the decoder demands %d", got, entryBytes)
	}
}

// The daemon section rejects a registry record whose lifecycle position
// no machine can hold, naming the service: a state past the last (256 +
// Running would wrap to Running as a State), a negative one, a retry
// count over its budget.
func TestDecodeRejectsImpossibleLifecycle(t *testing.T) {
	for _, tc := range []struct{ state, retries int }{{256 + int(Running), 0}, {-1, 0}, {int(Running), 4}} {
		e := checkpoint.NewEncoder()
		e.Int(0) // gen
		e.Int(1) // admitted
		e.Int(0) // next
		e.Bool(false)
		e.Bool(false)
		e.Int(1)
		e.String("masstree")
		e.Int(tc.state)
		e.Int(tc.retries)
		e.Int(DefaultMaxRetries)
		e.F64(0.5)
		e.String("fixed")
		e.F64(1)
		e.I64(1)
		e.Bool(true)
		e.Bool(false)
		e.Int(0)
		e.String("")
		(&ctrl.Loop{}).EncodeState(e)
		err := (&daemonState{}).DecodeState(checkpoint.NewDecoder(e.Bytes()))
		if err == nil || !strings.Contains(err.Error(), `"masstree"`) {
			t.Errorf("state %d, retries %d: decoded with error %v, want one naming the service", tc.state, tc.retries, err)
		}
	}
}

// A restored engine encodes the very checkpoint it was restored from:
// every registry field, counter and world section round-trips, not only
// those the resumed trajectory happens to read. At t=70 the e2e script
// has admitted xapian and drained it.
func TestRestoredEngineWritesItsCheckpoint(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(e2eConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, e, 70, e2eScript())
	if err := e.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	_, want, err := store.ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	re, seq, err := RestoreLatest(e2eConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 70 {
		t.Fatalf("restored from seq %d, want 70", seq)
	}
	if got := re.marshal(nil); !bytes.Equal(got, want) {
		t.Fatalf("restored engine encodes %d bytes that differ from the %d it was restored from", len(got), len(want))
	}
}

// A restore refuses exactly what admission refuses: a registry record
// the request rule would not admit, cut into a real checkpoint, is an
// error naming the service and matching the sentinel of the package
// that owns the value — not an engine that fails on its first Step.
func TestRestoreRefusesCraftedEntries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		craft func(en *entry)
		want  error
	}{
		{"NaN load", func(en *entry) { en.load = math.NaN() }, service.ErrBadLoad},
		{"load 9", func(en *entry) { en.load = 9 }, service.ErrBadLoad},
		{"NaN QoS target", func(en *entry) { en.qosMs = math.NaN() }, service.ErrBadQoS},
		{"negative QoS target", func(en *entry) { en.qosMs = -2 }, service.ErrBadQoS},
		{"unknown pattern", func(en *entry) { en.pattern = "sawtooth" }, loadgen.ErrUnknownPattern},
		{"unknown service", func(en *entry) { en.name = "postgres" }, service.ErrUnknownProfile},
		{"second record of a name", func(en *entry) { en.name = "masstree" }, ErrDuplicate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := checkpoint.NewStore(t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Scale: tinyScale(), Seed: 3, Store: store}
			e, err := New(cfg, []AdmitRequest{{Name: "masstree", Load: 0.5}, {Name: "xapian", Load: 0.4, Pattern: "diurnal"}})
			if err != nil {
				t.Fatal(err)
			}
			tc.craft(e.entries[1])
			if err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			_, _, err = RestoreLatest(cfg)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("%q", e.entries[1].name)) {
				t.Fatalf("restored with error %v, want %v naming %q", err, tc.want, e.entries[1].name)
			}
		})
	}
}
