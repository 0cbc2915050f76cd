package metrics

import "testing"

func TestRegistryRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.Describe("a_total", "counter", "First family.")
	r.Describe("b", "gauge", "Second family.")
	r.Add("a_total", Labels{"svc": "x"}, 2)
	r.Add("a_total", Labels{"svc": "x"}, 1)
	r.Add("a_total", Labels{"svc": `we"ird\na`, "z": "1"}, 1)
	r.Set("b", nil, 2.5)
	got := r.Render()
	want := `# HELP a_total First family.
# TYPE a_total counter
a_total{svc="we\"ird\\na",z="1"} 1
a_total{svc="x"} 3
# HELP b Second family.
# TYPE b gauge
b 2.5
`
	if got != want {
		t.Errorf("Render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if v := r.Get("a_total", Labels{"svc": "x"}); v != 3 {
		t.Errorf("Get = %v, want 3", v)
	}
	if v := r.Get("missing", nil); v != 0 {
		t.Errorf("Get on unknown family = %v, want 0", v)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	r.Describe("x", "counter", "")
	mustPanic(t, "redeclare", func() { r.Describe("x", "gauge", "") })
	mustPanic(t, "undescribed", func() { r.Add("y", nil, 1) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// A resolved Series writes what Set/Add by name write, renders nothing
// before its first write, and costs no allocation per write.
func TestSeriesHandle(t *testing.T) {
	byName, byHandle := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{byName, byHandle} {
		r.Describe("g", "gauge", "")
		r.Describe("c_total", "counter", "")
	}
	lz, la := Labels{"svc": "z", "state": "up"}, Labels{"svc": "a"}
	hz, ha, hc := byHandle.Series("g", lz), byHandle.Series("g", la), byHandle.Series("c_total", nil)
	if got := byHandle.Render(); got != byName.Render() {
		t.Fatalf("resolving series changed the scrape:\n%s", got)
	}
	if byHandle.Series("g", Labels{"state": "up", "svc": "z"}) != hz {
		t.Fatal("equal labels resolved to two handles")
	}
	for i := 0; i < 3; i++ {
		byName.Set("g", lz, float64(i))
		byName.Set("g", la, 7)
		byName.Add("c_total", nil, 2)
		hz.Set(float64(i))
		ha.Set(7)
		hc.Add(2)
	}
	byName.Add("c_total", nil, 1) // handle and name reach the same series
	byHandle.Add("c_total", nil, 1)
	if got, want := byHandle.Render(), byName.Render(); got != want {
		t.Fatalf("handle writes render differently:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if v := byHandle.Get("c_total", nil); v != 7 {
		t.Fatalf("Get = %v, want 7", v)
	}
	if n := testing.AllocsPerRun(100, func() { hz.Set(1); hc.Add(1) }); n != 0 {
		t.Fatalf("a handle write allocates %v times, want 0", n)
	}
}
