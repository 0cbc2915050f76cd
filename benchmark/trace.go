package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files: name, start and end in ns since the trace began, the span
// that caused it (-1 for a root) and the interval it belongs to.
type span struct {
	Name     string
	Start    int64
	End      int64
	Parent   int32
	Interval int32
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so the untraced run pays one nil check
// per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of spans not yet ended
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string, interval int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent, Interval: int32(interval)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d ended out of order", id))
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:n-1]
}

// duration is the length of an ended span, in ns.
func (t *tracer) duration(id int32) int64 { return t.spans[id].End - t.spans[id].Start }

// durations lists the durations of every span of the given name, in ns.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].End-t.spans[i].Start)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the time its children
// cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].End - t.spans[i].Start
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].End - t.spans[i].Start
		}
	}
	return self
}

// selfDurations lists the self times of every span of the given name.
func (t *tracer) selfDurations(name string) []int64 {
	self := t.selfTimes()
	var out []int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// validate checks the span tree is well formed: every span ended, every
// child inside its parent, every self time non-negative.
func (t *tracer) validate() error {
	if len(t.open) != 0 {
		return fmt.Errorf("trace: %d spans never ended", len(t.open))
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := &t.spans[s.Parent]
			if int(s.Parent) >= i || s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("trace: span %d (%s) lies outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
		}
	}
	for i, v := range t.selfTimes() {
		if v < 0 {
			return fmt.Errorf("trace: span %d (%s) has negative self time %d ns", i, t.spans[i].Name, v)
		}
	}
	return nil
}

// writeJSON writes the spans as one JSON document: a header naming the
// columns, then one row per span.
func (t *tracer) writeJSON(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"columns\":[\"id\",\"name\",\"start\",\"end\",\"parent\",\"interval\"],\"spans\":[\n", workload, seed)
	for i := range t.spans {
		s := &t.spans[i]
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%q,%d,%d,%d,%d]%s\n", i, s.Name, s.Start, s.End, s.Parent, s.Interval, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
