package service

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// statePayload writes an EncodeState payload field by field, so a test
// can put anything in any of them. pendingLen and windowLen are the
// counts written; the elements that follow are the slices' own.
type statePayload struct {
	name       string
	now        float64
	pendingLen int
	pending    []Request
	windowLen  int
	window     [][]float64
	rngSeed    int64
	rngCount   uint64
}

func (p statePayload) bytes() []byte {
	e := checkpoint.NewEncoder()
	e.String(p.name)
	e.F64(p.now)
	e.Int(p.pendingLen)
	for _, r := range p.pending {
		e.F64(r.Arrival)
		e.F64(r.Work)
	}
	e.Int(p.windowLen)
	for _, w := range p.window {
		e.F64s(w)
	}
	e.I64(p.rngSeed)
	e.U64(p.rngCount)
	return e.Bytes()
}

func TestDecodeStateRejectsAndStaysUsable(t *testing.T) {
	prof := MustLookup("masstree")
	good := statePayload{
		name: prof.Name, now: 4,
		pendingLen: 1, pending: []Request{{Arrival: 3.9, Work: 0.01}},
		windowLen: 2, window: [][]float64{{0.001, 0.002, 0.002}, {0.0015}},
		rngSeed: 5, rngCount: 12,
	}
	with := func(mod func(*statePayload)) []byte {
		p := good
		mod(&p)
		return p.bytes()
	}
	cases := []struct {
		name    string
		payload []byte
		want    string // substring of the error
		is      error  // sentinel, when the branch has one
	}{
		{"empty payload", nil, "", checkpoint.ErrTruncated},
		{"another service's checkpoint", with(func(p *statePayload) { p.name = "moses" }), `is for "moses"`, nil},
		{"cut inside the clock", good.bytes()[:4+len(prof.Name)+3], "", checkpoint.ErrTruncated},
		{"negative queue length", with(func(p *statePayload) { p.pendingLen = -1 }), "list of -1 elements", checkpoint.ErrTruncated},
		{"queue longer than the payload", with(func(p *statePayload) { p.pendingLen = 1 << 40 }), "exceeds payload", nil},
		{"queue length that wraps the byte count", with(func(p *statePayload) { p.pendingLen = 1 << 60 }), "exceeds payload", checkpoint.ErrTruncated},
		{"cut inside the queue", good.bytes()[:4+len(prof.Name)+8+8+8], "exceeds payload", nil},
		{"cut before the window count", good.bytes()[:4+len(prof.Name)+8+8+16+4], "", checkpoint.ErrTruncated},
		{"negative window count", with(func(p *statePayload) { p.windowLen = -3 }), "latency window of -3", nil},
		{"window of three intervals", with(func(p *statePayload) {
			p.windowLen, p.window = 3, [][]float64{{1}, {2}, {3}}
		}), "exceeds maximum 2", nil},
		{"first run descending", with(func(p *statePayload) { p.window = [][]float64{{0.002, 0.001}, {0.0015}} }), "run 0 of 2", errWindowRunUnsorted},
		{"second run out of order", with(func(p *statePayload) { p.window = [][]float64{{0.001}, {0.1, 0.3, 0.2}} }), "run 1 of 2", errWindowRunUnsorted},
		{"NaN after a number", with(func(p *statePayload) { p.window = [][]float64{{0.001, math.NaN()}, nil} }), "run 0 of 2", errWindowRunUnsorted},
		{"cut inside a run", good.bytes()[:len(good.bytes())-16-8], "", checkpoint.ErrTruncated},
		{"rng draw count past the limit", with(func(p *statePayload) { p.rngCount = math.MaxUint64 }), "fast-forward limit", nil},
		{"cut inside the rng state", good.bytes()[:len(good.bytes())-3], "", checkpoint.ErrTruncated},
	}
	sh, fq := fullShares(18, 2.0)
	capGHz := prof.CapacityGHz(sh, fq)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewInstance(prof, 18, 1)
			for i := 0; i < 3; i++ {
				s.RunInterval(1500, capGHz, 1, 1)
			}
			err := s.DecodeState(checkpoint.NewDecoder(tc.payload))
			if err == nil {
				t.Fatal("payload accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("error %q is not %q", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Whatever was restored before the bad field, the instance
			// still runs, and what it then encodes restores cleanly.
			for i := 0; i < 3; i++ {
				st := s.RunInterval(1500, capGHz, 1, 1)
				if st.Arrivals == 0 || math.IsNaN(st.P99Ms) || st.P99Ms < 0 {
					t.Fatalf("interval %d after the rejected restore: %+v", i, st)
				}
			}
			if err := NewInstance(prof, 18, 2).DecodeState(checkpoint.NewDecoder(encodeInstance(s))); err != nil {
				t.Fatalf("state encoded after the rejected restore does not decode: %v", err)
			}
		})
	}

	// The payload the cases are cut from is itself accepted, leading NaNs
	// included: slices.Sort puts them there, so EncodeState can write them.
	for name, payload := range map[string][]byte{
		"good":        good.bytes(),
		"leading NaN": with(func(p *statePayload) { p.window = [][]float64{{math.NaN(), 0.001, 0.002}, {}} }),
	} {
		s := NewInstance(prof, 18, 1)
		if err := s.DecodeState(checkpoint.NewDecoder(payload)); err != nil {
			t.Fatalf("%s payload rejected: %v", name, err)
		}
		s.RunInterval(1500, capGHz, 1, 1)
	}
}

// The smallest pending request the encoder writes is at least the
// minimum the queue's count is bounded by.
func TestPendingBytesFitEncoder(t *testing.T) {
	s := NewInstance(MustLookup("masstree"), 18, 1)
	size := func() int {
		e := checkpoint.NewEncoder()
		s.EncodeState(e)
		return len(e.Bytes())
	}
	base := size()
	s.pending = []Request{{}}
	if got := size() - base; got < 16 {
		t.Fatalf("a zero Request encodes to %d bytes, the decoder demands 16", got)
	}
}
