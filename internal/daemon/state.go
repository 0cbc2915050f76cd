package daemon

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
)

// entryBytes is the smallest encoding of one registry entry: seven
// 8-byte fields, three empty strings and two bools.
const entryBytes = 7*8 + 3*4 + 2

// daemonState is the daemon's own checkpoint section: the service
// registry with lifecycle positions, the rebuild/admission counters and
// the control-loop position (the next interval and the interval
// kernel's carried state). Together with the sim-server, manager,
// drainer and guard sections it pins down the whole control plane. Its
// entries are the registry's own: a decoded entry lacks only what bind
// gives it.
type daemonState struct {
	gen         int
	admitted    int
	next        int
	guarded     bool
	faultsArmed bool
	entries     []*entry
	loop        *ctrl.Loop
}

// CheckpointName implements checkpoint.Checkpointable.
func (st *daemonState) CheckpointName() string { return "twigd-daemon" }

// EncodeState implements checkpoint.Checkpointable.
func (st *daemonState) EncodeState(e *checkpoint.Encoder) {
	e.Int(st.gen)
	e.Int(st.admitted)
	e.Int(st.next)
	e.Bool(st.guarded)
	e.Bool(st.faultsArmed)
	e.Int(len(st.entries))
	for _, en := range st.entries {
		e.String(en.name)
		e.Int(int(en.lc.state))
		e.Int(en.lc.retries)
		e.Int(en.lc.maxRetries)
		e.F64(en.load)
		e.String(en.pattern)
		e.F64(en.qosMs)
		e.I64(en.seed)
		e.Bool(en.inSim)
		e.Bool(en.remove)
		e.Int(en.drainFor)
		e.String(en.failReason)
	}
	st.loop.EncodeState(e)
}

// DecodeState implements checkpoint.Checkpointable. A lifecycle
// position its machine cannot hold is an error naming the service.
func (st *daemonState) DecodeState(d *checkpoint.Decoder) error {
	st.gen = d.Int()
	st.admitted = d.Int()
	st.next = d.Int()
	st.guarded = d.Bool()
	st.faultsArmed = d.Bool()
	st.entries = make([]*entry, d.Count(entryBytes))
	for i := range st.entries {
		en := &entry{name: d.String()}
		state := d.Int()
		retries := d.Int()
		maxRetries := d.Int()
		en.load = d.F64()
		en.pattern = d.String()
		en.qosMs = d.F64()
		en.seed = d.I64()
		en.inSim = d.Bool()
		en.remove = d.Bool()
		en.drainFor = d.Int()
		en.failReason = d.String()
		if err := d.Err(); err != nil {
			return err
		}
		if state < 0 || state >= numStates { // before State's uint8 wraps it
			return fmt.Errorf("service %q: unknown lifecycle state %d", en.name, state)
		}
		lc, err := RestoreLifecycle(State(state), retries, maxRetries)
		if err != nil {
			return fmt.Errorf("service %q: %w", en.name, err)
		}
		en.lc = lc
		st.entries[i] = en
	}
	st.loop = &ctrl.Loop{} // bound once the world it drives is rebuilt
	return st.loop.DecodeState(d)
}

// sections lists the engine's checkpoint sections in container order:
// head (the daemon section, when given), then the simulator, manager,
// drainer and, when enabled, guard sections.
func (e *Engine) sections(head ...checkpoint.Checkpointable) []checkpoint.Checkpointable {
	comps := append(make([]checkpoint.Checkpointable, 0, len(head)+4), head...)
	comps = append(comps, e.srv, e.mgr, e.drainer)
	if e.guard != nil {
		comps = append(comps, e.guard)
	}
	return comps
}

// marshal appends the full control plane's container to dst (caller
// holds the engine lock): the daemon registry/loop section plus the
// world's. A cut headed for the writer encodes into the writer's own
// settled storage, e.writer.Buffer().
func (e *Engine) marshal(dst []byte) []byte {
	st := &daemonState{
		gen:         e.gen,
		admitted:    e.admitted,
		next:        e.next,
		guarded:     e.cfg.Guard,
		faultsArmed: e.cfg.faultsArmed(),
		entries:     e.entries,
		loop:        e.loop,
	}
	return checkpoint.MarshalAppend(dst, e.sections(st)...)
}

// RestoreLatest rebuilds an engine from the newest valid checkpoint in
// cfg.Store and returns it with the restored sequence number. A
// restored engine is built from the constructor's parts plus decode:
// newEngine, the daemon section decoded into the registry, bind on each
// entry (refusing what admission refuses), buildWorld over the hosted
// ones, then every world section decoded into that world. Because each
// component's DecodeState fully overwrites its random streams and
// learning state, the resumed trajectory is bit-identical to an
// uninterrupted run — regardless of how the membership evolved before
// the cut.
func RestoreLatest(cfg Config) (*Engine, uint64, error) {
	if cfg.Store == nil {
		return nil, 0, ErrNoStore
	}
	e := newEngine(cfg)
	seq, data, err := cfg.Store.ReadLatest()
	if err != nil {
		return nil, 0, err
	}
	var st daemonState
	if err := checkpoint.Unmarshal(data, &st); err != nil {
		return nil, 0, fmt.Errorf("daemon: reading checkpoint %d: %w", seq, err)
	}
	if st.guarded != e.cfg.Guard {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d was taken with guard=%v, configured guard=%v", seq, st.guarded, e.cfg.Guard)
	}
	if st.faultsArmed != e.cfg.faultsArmed() {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d was taken with faults armed=%v, configured armed=%v", seq, st.faultsArmed, e.cfg.faultsArmed())
	}
	e.resumed, e.gen, e.admitted, e.next, e.entries = seq, st.gen, st.admitted, st.next, st.entries
	for _, en := range e.entries {
		err := e.bind(en)
		if err == nil && e.find(en.name) != en {
			err = ErrDuplicate
		}
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: checkpoint %d, service %q: %w", seq, en.name, err)
		}
	}
	if len(e.liveEntries()) == 0 {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d hosts no services", seq)
	}
	// Build a world of the checkpointed shape, then overwrite every
	// component's state from the container. The checkpoint's own
	// validation (section framing, CRC, per-component shape checks)
	// rejects a mismatch.
	e.buildWorld()
	e.loop = st.loop
	e.loop.Bind(e.srv, e.drainer)
	if err := checkpoint.Unmarshal(data, e.sections()...); err != nil {
		return nil, 0, fmt.Errorf("daemon: restoring checkpoint %d: %w", seq, err)
	}
	return e, seq, nil
}
