package core

import (
	"fmt"
	"io"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

func encodeSample(e *checkpoint.Encoder, s pmc.Sample) {
	for _, v := range s {
		e.F64(v)
	}
}

func decodeSample(d *checkpoint.Decoder) pmc.Sample {
	var s pmc.Sample
	for i := range s {
		s[i] = d.F64()
	}
	return s
}

// EncodeState writes the smoothing window contents and last-good repair
// values. η itself is configuration; it goes in as a fingerprint.
func (m *Monitor) EncodeState(e *checkpoint.Encoder) {
	e.Int(m.eta)
	e.Int(len(m.history))
	for _, h := range m.history {
		e.Int(len(h))
		for _, s := range h {
			encodeSample(e, s)
		}
	}
	for _, s := range m.lastGood {
		encodeSample(e, s)
	}
}

// DecodeState restores monitor state written by EncodeState.
func (m *Monitor) DecodeState(d *checkpoint.Decoder) error {
	eta, k := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if eta != m.eta || k != len(m.history) {
		return fmt.Errorf("core: monitor checkpoint is for %d services with η=%d, this monitor has %d with η=%d",
			k, eta, len(m.history), m.eta)
	}
	history := make([][]pmc.Sample, k)
	for i := range history {
		n := d.Count(int(pmc.NumCounters) * 8)
		if n > m.eta {
			return fmt.Errorf("core: monitor history length %d exceeds η=%d", n, m.eta)
		}
		if n > 0 {
			history[i] = make([]pmc.Sample, n)
			for j := range history[i] {
				history[i][j] = decodeSample(d)
			}
		}
	}
	lastGood := make([]pmc.Sample, k)
	for i := range lastGood {
		lastGood[i] = decodeSample(d)
	}
	if err := d.Err(); err != nil {
		return err
	}
	m.history = history
	m.lastGood = lastGood
	return nil
}

// CheckpointName implements checkpoint.Checkpointable.
func (m *Manager) CheckpointName() string { return "twig-manager" }

// EncodeState writes the full learning state of the Twig manager: the
// Algorithm 1 interval counter and oscillation metric, the pending
// (s, a) pair awaiting its reward, the previous mapping decision, the
// monitor's smoothing window, and the BDQ agent (networks, optimiser,
// replay buffer, RNG). Service names and the core count go in first as
// a fingerprint.
func (m *Manager) EncodeState(e *checkpoint.Encoder) {
	e.Int(len(m.cfg.Services))
	for _, svc := range m.cfg.Services {
		e.String(svc.Name)
	}
	e.Int(m.cfg.NumCores)
	e.Int(m.steps)
	e.Int(m.migrations)
	e.F64(m.lastLoss)
	e.Bool(m.prevState != nil)
	e.F64s(m.prevState)
	e.Int(len(m.prevActions))
	for _, a := range m.prevActions {
		e.Ints(a)
	}
	e.Int(len(m.prevReqs))
	for _, r := range m.prevReqs {
		e.Int(r.Cores)
		e.F64(r.FreqGHz)
		e.Int(r.CacheWays)
	}
	sim.EncodeAssignment(e, m.lastAsg)
	m.monitor.EncodeState(e)
	m.agent.EncodeState(e)
}

// DecodeState restores state written by EncodeState into a manager
// built with the same configuration.
func (m *Manager) DecodeState(d *checkpoint.Decoder) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != len(m.cfg.Services) {
		return fmt.Errorf("core: checkpoint manages %d services, this manager %d", k, len(m.cfg.Services))
	}
	for i := 0; i < k; i++ {
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		if name != m.cfg.Services[i].Name {
			return fmt.Errorf("core: checkpoint service %d is %q, this manager runs %q", i, name, m.cfg.Services[i].Name)
		}
	}
	numCores := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if numCores != m.cfg.NumCores {
		return fmt.Errorf("core: checkpoint is for %d managed cores, this manager has %d", numCores, m.cfg.NumCores)
	}
	steps, migrations := d.Int(), d.Int()
	lastLoss := d.F64()
	havePrev := d.Bool()
	prevState := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	if steps < 0 || migrations < 0 {
		return fmt.Errorf("core: negative counters (%d, %d) in checkpoint", steps, migrations)
	}
	var prevActions [][]int
	for range d.Count(4) { // an empty action vector
		prevActions = append(prevActions, d.Ints())
	}
	var prevReqs []Request
	for range d.Count(requestBytes) {
		prevReqs = append(prevReqs, Request{
			Cores:     d.Int(),
			FreqGHz:   d.F64(),
			CacheWays: d.Int(),
		})
	}
	lastAsg, err := sim.DecodeAssignment(d)
	if err != nil {
		return err
	}
	if err := m.monitor.DecodeState(d); err != nil {
		return err
	}
	if err := m.agent.DecodeState(d); err != nil {
		return err
	}
	m.steps = steps
	m.migrations = migrations
	m.lastLoss = lastLoss
	if havePrev {
		if prevState == nil {
			prevState = []float64{}
		}
		m.prevState = prevState
	} else {
		m.prevState = nil
	}
	m.prevActions = prevActions
	m.prevReqs = prevReqs
	m.lastAsg = lastAsg
	return nil
}

// requestBytes is the encoding of one Request: cores, frequency and
// cache ways.
const requestBytes = 8 + 8 + 8

// SaveCheckpoint writes a standalone manager checkpoint in the versioned
// container format — the learning state plus everything Decide carries
// between intervals: a restored checkpoint continues training
// bit-identically.
func (m *Manager) SaveCheckpoint(w io.Writer) error {
	_, err := w.Write(checkpoint.Marshal(m))
	return err
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint, all or
// nothing (Reload).
func (m *Manager) LoadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	_, err = m.Reload(data, nil)
	return err
}

// Reload decodes a checkpoint written by SaveCheckpoint into the manager,
// all or nothing. DecodeState restores the monitor, the agent's counters,
// optimiser, RNG, networks and replay in place and can fail after any of
// them (so can the trailing-bytes check behind it), so Reload first
// encodes the manager into undo[:0] and a failed decode restores from it:
// a live manager (twigd's /reload) keeps running on the state it had,
// never on a mix of the two. It returns the undo storage, grown as needed,
// for the caller to reuse.
func (m *Manager) Reload(data, undo []byte) ([]byte, error) {
	undo = checkpoint.MarshalAppend(undo[:0], m)
	if err := checkpoint.Unmarshal(data, m); err != nil {
		if uerr := checkpoint.Unmarshal(undo, m); uerr != nil {
			panic(fmt.Sprintf("core: restoring the manager after a failed load (%v): %v", err, uerr))
		}
		return undo, err
	}
	return undo, nil
}
