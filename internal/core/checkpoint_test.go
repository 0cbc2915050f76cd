package core

import (
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// A manager section whose action-vector or request count times the old
// per-element estimate wraps to 0 must be rejected, not looped over.
func TestManagerDecodeRejectsWrappingCounts(t *testing.T) {
	m := smallManager(1)
	craft := func(actions, reqs int) []byte {
		e := checkpoint.NewEncoder()
		e.Int(1)
		e.String(m.cfg.Services[0].Name)
		e.Int(m.cfg.NumCores)
		e.Int(0) // steps
		e.Int(0) // migrations
		e.F64(0) // last loss
		e.Bool(false)
		e.F64s(nil) // previous state
		e.Int(actions)
		e.Int(reqs)
		e.F64s(make([]float64, 8))
		return e.Bytes()
	}
	for _, tc := range []struct {
		name          string
		actions, reqs int
	}{
		{"prevActions", 1 << 62, 0}, // ×4 is 2⁶⁴
		{"prevReqs", 0, 1 << 60},    // ×16 is 2⁶⁴
	} {
		err := smallManager(1).DecodeState(checkpoint.NewDecoder(craft(tc.actions, tc.reqs)))
		if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
			t.Fatalf("crafted %s count: err %v, want the count rejected", tc.name, err)
		}
	}
}

// The smallest element of each list in the manager's section encodes to
// at least the minimum its count is bounded by: one element more of
// each grows the encoding by that much or more.
func TestManagerListBytesFitEncoder(t *testing.T) {
	size := func(m *Manager) int {
		e := checkpoint.NewEncoder()
		m.EncodeState(e)
		return len(e.Bytes())
	}
	base := size(smallManager(1))
	for _, tc := range []struct {
		name string
		add  func(m *Manager)
		min  int
	}{
		{"action vector", func(m *Manager) { m.prevActions = [][]int{nil} }, 4},
		{"request", func(m *Manager) { m.prevReqs = []Request{{}} }, requestBytes},
		{"monitor sample", func(m *Manager) { m.monitor.history[0] = []pmc.Sample{{}} }, int(pmc.NumCounters) * 8},
	} {
		m := smallManager(1)
		tc.add(m)
		if got := size(m) - base; got < tc.min {
			t.Errorf("a zero %s encodes to %d bytes, the decoder demands %d", tc.name, got, tc.min)
		}
	}
}
