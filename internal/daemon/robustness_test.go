package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// A request body over the admission cap must come back 400 with a JSON
// error envelope, not hang the decoder or admit a truncated document.
func TestAPIOversizedBodyRejected(t *testing.T) {
	mux := NewMux(testEngine(t))
	body := `{"name": "xapian", "load": 0.5, "pattern": "` +
		strings.Repeat("x", maxBodyBytes+1) + `"}`
	w := do(t, mux, "POST", "/services", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized POST /services = %d, want 400", w.Code)
	}
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q not a JSON error envelope", w.Body.String())
	}
	// The registry must be untouched.
	var views []ServiceView
	_ = json.Unmarshal(do(t, mux, "GET", "/services", "").Body.Bytes(), &views)
	if len(views) != 1 {
		t.Fatalf("oversized admission leaked into the registry: %+v", views)
	}
}

// deadLetterConfig bounds the live set at one service, so a second
// admission fails placement at DefaultMaxRetries+1 consecutive
// boundaries and dead-letters deterministically.
func deadLetterConfig(store *checkpoint.Store) Config {
	return Config{
		Scale:           tinyScale(),
		Seed:            7,
		Store:           store,
		CheckpointEvery: 10,
		MaxLive:         1,
	}
}

// TestDeadLetterVisibleAndDurable drives the full dead-letter path: a
// service admitted over the live-capacity bound burns its retry budget
// at interval boundaries, lands terminally in DeadLetter with the
// failure reason visible in /services, and both survive a checkpoint
// round trip.
func TestDeadLetterVisibleAndDurable(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(deadLetterConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(AdmitRequest{Name: "xapian", Load: 0.4}); err != nil {
		t.Fatal(err)
	}

	// The first DefaultMaxRetries boundaries consume the retry budget; the
	// next one dead-letters.
	var states []string
	for i := 0; i < DefaultMaxRetries; i++ {
		states = append(states, "pending")
	}
	states = append(states, "dead-letter")
	attempts := fmt.Sprintf("dead-lettered after %d attempts", DefaultMaxRetries+1)
	for i, want := range states {
		if _, err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := findView(t, e, "xapian").State; got != want {
			t.Fatalf("after step %d xapian state = %q, want %q", i+1, got, want)
		}
	}

	check := func(tag string, e *Engine) {
		t.Helper()
		v := findView(t, e, "xapian")
		if v.State != "dead-letter" || v.Retries != DefaultMaxRetries {
			t.Fatalf("%s: view = %+v, want terminal dead-letter with %d retries", tag, v, DefaultMaxRetries)
		}
		if !strings.Contains(v.Reason, attempts) ||
			!strings.Contains(v.Reason, "live-capacity limit 1 reached") {
			t.Fatalf("%s: reason %q does not explain the failure", tag, v.Reason)
		}
	}
	check("live engine", e)

	// Dead-letter is terminal: further intervals must not resurrect it,
	// and the healthy service keeps running.
	for i := 0; i < 5; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	check("after more intervals", e)
	if v := findView(t, e, "masstree"); v.State != "running" {
		t.Fatalf("masstree = %+v, want running", v)
	}
	scrape := e.Metrics().Render()
	if !strings.Contains(scrape, fmt.Sprintf("twigd_placement_failures_total %d", DefaultMaxRetries+1)) {
		t.Fatalf("scrape missing placement failure count:\n%s", scrape)
	}

	// The terminal state and its reason must survive restore.
	if err := e.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	re, _, err := RestoreLatest(deadLetterConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	check("restored engine", re)
	if _, err := re.Step(); err != nil {
		t.Fatalf("restored engine step: %v", err)
	}
	// The step may have submitted a periodic checkpoint; let it land
	// before the temporary directory is removed.
	if err := re.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	check("restored engine after step", re)

	// The reason rides through the HTTP listing, where operators see it.
	var views []ServiceView
	_ = json.Unmarshal(do(t, NewMux(re), "GET", "/services", "").Body.Bytes(), &views)
	found := false
	for _, v := range views {
		if v.Name == "xapian" {
			found = v.State == "dead-letter" && strings.Contains(v.Reason, attempts)
		}
	}
	if !found {
		t.Fatalf("GET /services does not surface the dead-letter reason: %+v", views)
	}
}

func findView(t *testing.T, e *Engine, name string) ServiceView {
	t.Helper()
	for _, v := range e.Services() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("service %q not in registry", name)
	return ServiceView{}
}

// TestCorruptCheckpointFallbackSurfaced corrupts the newest checkpoint
// on disk and verifies the restore falls back to the previous one while
// naming the rejected file on stderr-equivalent accounting: the
// twigd_checkpoint_corrupt_total counter.
func TestCorruptCheckpointFallbackSurfaced(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(e2eConfig(store), []AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	// The test needs two cuts on disk. The writer is latest-wins — a cut
	// still pending when the next is submitted is superseded — so each
	// one is flushed at its cadence boundary instead of racing the
	// writer goroutine.
	for _, until := range []int{20, 30} {
		if err := e.RunTo(until, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := store.Sequences()
	if err != nil || len(seqs) < 2 {
		t.Fatalf("want >=2 checkpoints on disk, got %v (%v)", seqs, err)
	}
	newest := seqs[len(seqs)-1]

	// Flip one payload byte in the newest container; its CRC check must
	// reject it and the scan must fall back to the one before.
	path := store.Path(newest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, seq, err := RestoreLatest(e2eConfig(store))
	if err != nil {
		t.Fatalf("restore did not fall back past the corrupt checkpoint: %v", err)
	}
	if seq != seqs[len(seqs)-2] {
		t.Fatalf("restored from %d, want fallback to %d", seq, seqs[len(seqs)-2])
	}
	scrape := re.Metrics().Render()
	if !strings.Contains(scrape, "twigd_checkpoint_corrupt_total 1") {
		t.Fatalf("scrape does not surface the corrupt checkpoint:\n%s", scrape)
	}
	if _, err := re.Step(); err != nil {
		t.Fatalf("restored engine step: %v", err)
	}
}
