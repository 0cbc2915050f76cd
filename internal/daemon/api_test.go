package daemon

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{Scale: tinyScale(), Seed: 11, DrainTimeoutS: 15},
		[]AdmitRequest{{Name: "masstree", Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestAPIHealthAndListing(t *testing.T) {
	mux := NewMux(testEngine(t))
	if w := do(t, mux, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	w := do(t, mux, "GET", "/services", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /services = %d", w.Code)
	}
	var views []ServiceView
	if err := json.Unmarshal(w.Body.Bytes(), &views); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	if len(views) != 1 || views[0].Name != "masstree" || views[0].State != "running" {
		t.Fatalf("listing = %+v", views)
	}
}

// Malformed and invalid admissions must come back 4xx with a JSON error
// body — never a 200, never a panic, never a default-valued admission.
func TestAPIAdmissionRejectsBadInput(t *testing.T) {
	mux := NewMux(testEngine(t))
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", `{"name": "xapian",`, http.StatusBadRequest},
		{"unknown field", `{"name": "xapian", "laod": 0.5}`, http.StatusBadRequest},
		{"trailing garbage", `{"name": "xapian", "load": 0.5} extra`, http.StatusBadRequest},
		{"unknown profile", `{"name": "postgres", "load": 0.5}`, http.StatusBadRequest},
		{"zero load", `{"name": "xapian", "load": 0}`, http.StatusBadRequest},
		{"negative load", `{"name": "xapian", "load": -0.5}`, http.StatusBadRequest},
		{"absurd load", `{"name": "xapian", "load": 7}`, http.StatusBadRequest},
		{"unknown pattern", `{"name": "xapian", "load": 0.5, "pattern": "sawtooth"}`, http.StatusBadRequest},
		{"duplicate", `{"name": "masstree", "load": 0.5}`, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, mux, "POST", "/services", tc.body)
			if w.Code != tc.code {
				t.Fatalf("POST /services %s = %d (%s), want %d", tc.body, w.Code, w.Body.String(), tc.code)
			}
			var e apiError
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not a JSON error envelope", w.Body.String())
			}
		})
	}
	// The registry must be untouched by all of the rejections.
	w := do(t, mux, "GET", "/services", "")
	var views []ServiceView
	_ = json.Unmarshal(w.Body.Bytes(), &views)
	if len(views) != 1 {
		t.Fatalf("rejected admissions leaked into the registry: %+v", views)
	}
}

func TestAPIAdmitDrainDeleteFlow(t *testing.T) {
	e := testEngine(t)
	mux := NewMux(e)

	if w := do(t, mux, "POST", "/services", `{"name": "xapian", "load": 0.4}`); w.Code != http.StatusAccepted {
		t.Fatalf("admit = %d (%s)", w.Code, w.Body.String())
	}
	// Pending until the next boundary; then placed and running.
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}

	if w := do(t, mux, "POST", "/drain", `{"name": "xapian"}`); w.Code != http.StatusAccepted {
		t.Fatalf("drain = %d (%s)", w.Code, w.Body.String())
	}
	// Drain-while-draining conflicts (the lifecycle rejects the event).
	if w := do(t, mux, "POST", "/drain", `{"name": "xapian"}`); w.Code != http.StatusConflict {
		t.Fatalf("double drain = %d (%s), want 409", w.Code, w.Body.String())
	}
	if w := do(t, mux, "POST", "/drain", `{"name": "nope"}`); w.Code != http.StatusNotFound {
		t.Fatalf("drain unknown = %d, want 404", w.Code)
	}

	// Run the drain to completion, then DELETE removes the entry.
	for i := 0; i < 20; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w := do(t, mux, "DELETE", "/services/xapian", "")
	if w.Code != http.StatusOK {
		t.Fatalf("delete stopped service = %d (%s), want 200", w.Code, w.Body.String())
	}
	if w := do(t, mux, "DELETE", "/services/xapian", ""); w.Code != http.StatusNotFound {
		t.Fatalf("delete again = %d, want 404", w.Code)
	}
	var views []ServiceView
	_ = json.Unmarshal(do(t, mux, "GET", "/services", "").Body.Bytes(), &views)
	if len(views) != 1 || views[0].Name != "masstree" {
		t.Fatalf("registry after delete = %+v", views)
	}
}

func TestAPIReloadWithoutStoreConflicts(t *testing.T) {
	mux := NewMux(testEngine(t))
	if w := do(t, mux, "POST", "/reload", ""); w.Code != http.StatusConflict {
		t.Fatalf("reload without store = %d, want 409", w.Code)
	}
}

// TestAPIStatusEncodesNaNSafely plants non-finite measurements in the
// last step result and checks /status still returns valid JSON with the
// -1 sentinel.
func TestAPIStatusEncodesNaNSafely(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.lastRes.TruePowerW = math.NaN()
	e.lastRes.Services[0].P99Ms = math.Inf(1)
	e.mu.Unlock()

	w := do(t, NewMux(e), "GET", "/status", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var s struct {
		PowerW   float64 `json:"power_w"`
		Services []struct {
			Name  string  `json:"name"`
			State string  `json:"state"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"services"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
		t.Fatalf("status body is not valid JSON: %v\n%s", err, w.Body.String())
	}
	if s.PowerW != -1 {
		t.Errorf("NaN power encoded as %v, want -1", s.PowerW)
	}
	if len(s.Services) != 1 || s.Services[0].P99Ms != -1 {
		t.Errorf("Inf p99 encoded as %+v, want -1", s.Services)
	}
	if s.Services[0].State != "running" {
		t.Errorf("status lacks lifecycle state: %+v", s.Services[0])
	}
}

// TestAPIStatusLiveInputs checks the learning-health by-product of the
// GEMM column scan: no live_inputs before the learner has trained, and
// afterwards one share per dense layer — 1 for the first layer, whose
// inputs are the PMC features, and something in (0, 1] for the rest —
// with the same numbers on /metrics.
func TestAPIStatusLiveInputs(t *testing.T) {
	e := testEngine(t)
	live := func() map[string]float64 {
		var s struct {
			LiveInputs map[string]float64 `json:"live_inputs"`
		}
		w := do(t, NewMux(e), "GET", "/status", "")
		if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
			t.Fatalf("status body: %v", err)
		}
		return s.LiveInputs
	}
	if got := live(); got != nil {
		t.Fatalf("live_inputs before any training: %v", got)
	}
	for i := 0; i < 30; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := live()
	if got["shared0"] != 1 || len(got) < 4 {
		t.Fatalf("live_inputs after training: %v", got)
	}
	scrape := do(t, NewMux(e), "GET", "/metrics", "").Body.String()
	for layer, share := range got {
		if !(share > 0 && share <= 1) {
			t.Errorf("layer %s live share %v", layer, share)
		}
		if v := e.Metrics().Get("twigd_layer_live_inputs_ratio", Labels{"layer": layer}); v != share {
			t.Errorf("layer %s: /metrics has %v, /status %v", layer, v, share)
		}
	}
	if !strings.Contains(scrape, `twigd_layer_live_inputs_ratio{layer="shared0"} 1`) {
		t.Errorf("scrape lacks the gauge:\n%s", scrape)
	}
}

// TestAPIConcurrentAccess hammers every endpoint while the control loop
// steps; run under -race this is the daemon's thread-safety proof.
func TestAPIConcurrentAccess(t *testing.T) {
	e := testEngine(t)
	mux := NewMux(e)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := e.Step(); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
		close(stop)
	}()

	paths := []struct{ method, path, body string }{
		{"GET", "/status", ""},
		{"GET", "/services", ""},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
		{"POST", "/services", `{"name": "masstree", "load": 0.5}`}, // always a 409 duplicate
		{"POST", "/drain", `{"name": "missing"}`},                  // always a 404
	}
	for _, p := range paths {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(p.method, p.path, strings.NewReader(p.body))
				mux.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
}
