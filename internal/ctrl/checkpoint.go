package ctrl

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// EncodeObservation serialises an observation (used for tracker and
// guard state, and by twigd to carry the control loop's pending
// observation across a restart).
func EncodeObservation(e *checkpoint.Encoder, obs Observation) {
	e.Int(obs.Time)
	e.F64(obs.PowerW)
	checkpoint.EncodeList(e, obs.Services, encodeServiceObs)
}

// DecodeObservation reads an observation written by EncodeObservation.
func DecodeObservation(d *checkpoint.Decoder) (Observation, error) {
	obs := Observation{Time: d.Int(), PowerW: d.F64()}
	var err error
	if obs.Services, err = checkpoint.DecodeList(d, serviceObsBytes, decodeServiceObs); err != nil {
		return Observation{}, err
	}
	return obs, nil
}

// serviceObsBytes is the encoding of one ServiceObs: four float64s, the
// PMC count and block, and a bool.
const serviceObsBytes = (4+1+int(pmc.NumCounters))*8 + 1

func encodeServiceObs(e *checkpoint.Encoder, s ServiceObs) {
	e.F64(s.P99Ms)
	e.F64(s.QoSTargetMs)
	e.F64(s.MeasuredRPS)
	e.F64(s.MaxLoadRPS)
	e.Int(int(pmc.NumCounters))
	for _, v := range s.NormPMCs {
		e.F64(v)
	}
	e.Bool(s.QueueGrowing)
}

func decodeServiceObs(d *checkpoint.Decoder) (ServiceObs, error) {
	s := ServiceObs{
		P99Ms:       d.F64(),
		QoSTargetMs: d.F64(),
		MeasuredRPS: d.F64(),
		MaxLoadRPS:  d.F64(),
	}
	nc := d.Int()
	if err := d.Err(); err != nil {
		return ServiceObs{}, err
	}
	if nc != int(pmc.NumCounters) {
		return ServiceObs{}, fmt.Errorf("ctrl: checkpoint has %d PMC counters, this build has %d", nc, int(pmc.NumCounters))
	}
	for i := range s.NormPMCs {
		s.NormPMCs[i] = d.F64()
	}
	s.QueueGrowing = d.Bool()
	return s, d.Err()
}

// EncodeState writes the tracker's previous-interval queue depths. The
// nil/allocated distinction matters: a nil tracker has not observed yet
// and compares the first observation against empty queues.
func (tr *ObservationTracker) EncodeState(e *checkpoint.Encoder) {
	e.Bool(tr.prevQueue != nil)
	e.Ints(tr.prevQueue)
}

// DecodeState restores tracker state written by EncodeState.
func (tr *ObservationTracker) DecodeState(d *checkpoint.Decoder) error {
	have := d.Bool()
	q := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if !have {
		tr.prevQueue = nil
		return nil
	}
	if q == nil {
		q = []int{} // observed services may legitimately number zero
	}
	tr.prevQueue = q
	return nil
}

// CheckpointName labels the guard's section when it participates in a
// full-loop checkpoint (the wrapped controller checkpoints separately).
func (g *Guard) CheckpointName() string { return "ctrl-guard" }

// EncodeState writes the guard's repair and breaker state: per-service
// last-good observations, staleness and streak counters, breaker trips,
// the bridged power reading and the cumulative health counters. The
// wrapped controller checkpoints itself separately.
func (g *Guard) EncodeState(e *checkpoint.Encoder) {
	checkpoint.EncodeList(e, g.lastGood, encodeServiceObs)
	e.Bools(g.haveGood)
	e.Ints(g.staleFor)
	e.Ints(g.violStreak)
	e.Ints(g.metStreak)
	e.Bools(g.tripped)
	e.F64(g.lastPowerW)
	e.Bool(g.havePower)
	h := g.health
	e.Int(h.ObsRepaired)
	e.Int(h.StaleExceeded)
	e.Int(h.PanicsRecovered)
	e.Int(h.ActionsClamped)
	e.Int(h.FallbackIntervals)
	e.Int(h.BreakerTrips)
	e.Int(h.BreakerIntervals)
}

// DecodeState restores guard state written by EncodeState.
func (g *Guard) DecodeState(d *checkpoint.Decoder) error {
	lastGood, err := checkpoint.DecodeList(d, serviceObsBytes, decodeServiceObs)
	if err != nil {
		return err
	}
	k := len(lastGood)
	haveGood := d.Bools()
	staleFor := d.Ints()
	violStreak := d.Ints()
	metStreak := d.Ints()
	tripped := d.Bools()
	lastPowerW := d.F64()
	havePower := d.Bool()
	var h GuardHealth
	h.ObsRepaired = d.Int()
	h.StaleExceeded = d.Int()
	h.PanicsRecovered = d.Int()
	h.ActionsClamped = d.Int()
	h.FallbackIntervals = d.Int()
	h.BreakerTrips = d.Int()
	h.BreakerIntervals = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	for _, l := range [][2]int{{len(haveGood), k}, {len(staleFor), k}, {len(violStreak), k}, {len(metStreak), k}, {len(tripped), k}} {
		if l[0] != l[1] {
			return fmt.Errorf("ctrl: guard checkpoint slice lengths disagree (%d vs %d services)", l[0], l[1])
		}
	}
	// init() sizes the slices lazily on the first Decide; a k of zero
	// means the guard had not decided yet, so leave everything nil.
	if k == 0 {
		g.lastGood, g.haveGood, g.staleFor = nil, nil, nil
		g.violStreak, g.metStreak, g.tripped = nil, nil, nil
	} else {
		g.lastGood, g.haveGood, g.staleFor = lastGood, haveGood, staleFor
		g.violStreak, g.metStreak, g.tripped = violStreak, metStreak, tripped
	}
	g.lastPowerW = lastPowerW
	g.havePower = havePower
	g.health = h
	return nil
}
