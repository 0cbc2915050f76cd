package faults

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/rng"
)

// event is what a schedule holds: an Event or a NodeEvent.
type event interface{ ActiveAt(t int) bool }

// schedule is the part of a fault schedule both injectors share: the
// counted stream every draw comes from, the interval clock, the events
// active now, the log of every event ever drawn and the checkpoint codec
// of that position. An injector embeds one and keeps its scenario, its
// victims and the kind-specific draws of its Advance.
type schedule[E event] struct {
	rng *rng.Rand
	// name (the scenario's) and n (the services or nodes drawn over)
	// fingerprint a checkpoint; the scenario is re-supplied configuration.
	name string
	n    int
	maxS int // a rate-scheduled event lasts 1..maxS intervals

	t      int
	active []E
	log    []E
}

func newSchedule[E event](seed int64, name string, n, maxS int) schedule[E] {
	return schedule[E]{rng: rng.New(seed), name: name, n: n, maxS: maxS}
}

// tick moves the clock on and drops the events that do not cover the
// interval it returns.
func (s *schedule[E]) tick() int {
	t := s.t
	s.t++
	keep := s.active[:0]
	for _, e := range s.active {
		if e.ActiveAt(t) {
			keep = append(keep, e)
		}
	}
	s.active = keep
	return t
}

// draw reports whether an event at ratePerKs (expected events per 1000
// intervals) starts now; a zero rate draws nothing.
func (s *schedule[E]) draw(ratePerKs float64) bool {
	return ratePerKs > 0 && s.rng.Float64() < ratePerKs/1000
}

func (s *schedule[E]) duration() int { return 1 + s.rng.Intn(s.maxS) }

func (s *schedule[E]) add(e E) {
	s.active = append(s.active, e)
	s.log = append(s.log, e)
}

// encodeState writes the fingerprint, the clock, the active events, the
// log and the stream's position.
func (s *schedule[E]) encodeState(e *checkpoint.Encoder, enc func(*checkpoint.Encoder, E)) {
	e.String(s.name)
	e.Int(s.n)
	e.Int(s.t)
	checkpoint.EncodeList(e, s.active, enc)
	checkpoint.EncodeList(e, s.log, enc)
	s.rng.Source().EncodeState(e)
}

// decodeState restores what encodeState wrote into a schedule with the
// same fingerprint. dec reads one event of minBytes or more and refuses
// one its injector could not have drawn, so a restored schedule names
// only victims its world has. On an error the events and clock stay.
func (s *schedule[E]) decodeState(d *checkpoint.Decoder, minBytes int, dec func(*checkpoint.Decoder) (E, error)) error {
	name, n := d.String(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if name != s.name || n != s.n {
		return fmt.Errorf("faults: checkpoint is for scenario %q over %d victims, injector runs %q over %d", name, n, s.name, s.n)
	}
	t := d.Int()
	active, err := checkpoint.DecodeList(d, minBytes, dec)
	if err != nil {
		return err
	}
	log, err := checkpoint.DecodeList(d, minBytes, dec)
	if err != nil {
		return err
	}
	if err := s.rng.Source().DecodeState(d); err != nil {
		return err
	}
	s.t, s.active, s.log = t, active, log
	return nil
}
