// Package metrics is a minimal Prometheus-text-format registry shared
// by the twigd daemon and the cluster coordinator: enough to expose
// counters and gauges on /metrics without pulling a client library into
// the module. It was extracted from internal/daemon when the fleet
// control plane grew its own metric families.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels attaches dimension values to one metric series.
type Labels map[string]string

// Registry is a minimal Prometheus-text-format metrics registry: enough
// for twigd to expose counters and gauges on /metrics without pulling a
// client library into the module. Families are declared once with a
// type and help string; series within a family are keyed by their
// sorted, escaped label rendering, so Render output is byte-stable for
// a deterministic run — which is what the golden scrape test pins.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // declaration order is preserved in Render
}

type family struct {
	typ, help string
	series    map[string]*Series
	keys      []string // keys of the series written so far, in first-write order
}

// Series is one series of a family with its label set already rendered:
// the handle a caller that writes the same series every interval keeps,
// so the write is a store under the registry lock and nothing else. A
// series appears in Render from its first Set or Add, not from its
// resolution.
type Series struct {
	r       *Registry
	f       *family
	key     string
	v       float64
	written bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Describe declares a metric family. typ is "counter" or "gauge".
// Redeclaring a name is a programming error and panics.
func (r *Registry) Describe(name, typ, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: metric %q declared twice", name))
	}
	r.families[name] = &family{typ: typ, help: help, series: map[string]*Series{}}
	r.names = append(r.names, name)
}

// Series resolves the series of a declared family with the given labels,
// rendering the label set once. Equal (name, labels) give the same
// handle.
func (r *Registry) Series(name string, labels Labels) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		panic(fmt.Sprintf("metrics: metric %q used before Describe", name))
	}
	k := renderLabels(labels)
	s, ok := f.series[k]
	if !ok {
		s = &Series{r: r, f: f, key: k}
		f.series[k] = s
	}
	return s
}

// Add increments a counter series by delta (creating it at delta). A
// caller that writes the series every interval keeps its Series instead.
func (r *Registry) Add(name string, labels Labels, delta float64) {
	r.Series(name, labels).Add(delta)
}

// Set overwrites a gauge series with v (creating it if needed). A
// caller that writes the series every interval keeps its Series instead.
func (r *Registry) Set(name string, labels Labels, v float64) {
	r.Series(name, labels).Set(v)
}

// Add increments the series by delta.
func (s *Series) Add(delta float64) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.touchLocked()
	s.v += delta
}

// Set overwrites the series with v.
func (s *Series) Set(v float64) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.touchLocked()
	s.v = v
}

// touchLocked enters the series into its family's render list on its
// first write.
func (s *Series) touchLocked() {
	if !s.written {
		s.written = true
		s.f.keys = append(s.f.keys, s.key)
	}
}

// Get returns the current value of a series (0 if absent); tests use it
// to assert counters without scraping.
func (r *Registry) Get(name string, labels Labels) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0
	}
	if s, ok := f.series[renderLabels(labels)]; ok {
		return s.v
	}
	return 0
}

// Render writes the registry in the Prometheus text exposition format.
// Families appear in declaration order; series within a family in
// sorted label order, so equal state renders equal bytes.
func (r *Registry) Render() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		keys := append([]string(nil), f.keys...)
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(name)
			b.WriteString(k)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(f.series[k].v, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// renderLabels produces the canonical {k="v",...} suffix (empty for no
// labels), with keys sorted and values escaped per the text format.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
