package daemon

import (
	"fmt"
	"os"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/service"
)

// persistedEntry is the serialisable slice of an entry; the load
// pattern itself is rebuilt from (pattern, load, profile) on restore.
type persistedEntry struct {
	name       string
	state      State
	retries    int
	maxRetries int
	load       float64
	pattern    string
	qosMs      float64
	seed       int64
	inSim      bool
	remove     bool
	drainFor   int
	failReason string
}

// entryBytes is the smallest encoding of one persistedEntry: seven
// 8-byte fields, three empty strings and two bools.
const entryBytes = 7*8 + 3*4 + 2

// daemonState is the daemon's own checkpoint section: the service
// registry with lifecycle positions, the rebuild/admission counters and
// the control-loop position (the next interval and the interval
// kernel's carried state). Together with the sim-server, manager,
// drainer and guard sections it pins down the whole control plane.
type daemonState struct {
	gen         int
	admitted    int
	next        int
	guarded     bool
	faultsArmed bool
	entries     []persistedEntry
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
	for _, pe := range st.entries {
		e.String(pe.name)
		e.Int(int(pe.state))
		e.Int(pe.retries)
		e.Int(pe.maxRetries)
		e.F64(pe.load)
		e.String(pe.pattern)
		e.F64(pe.qosMs)
		e.I64(pe.seed)
		e.Bool(pe.inSim)
		e.Bool(pe.remove)
		e.Int(pe.drainFor)
		e.String(pe.failReason)
	}
	st.loop.EncodeState(e)
}

// DecodeState implements checkpoint.Checkpointable.
func (st *daemonState) DecodeState(d *checkpoint.Decoder) error {
	st.gen = d.Int()
	st.admitted = d.Int()
	st.next = d.Int()
	st.guarded = d.Bool()
	st.faultsArmed = d.Bool()
	st.entries = make([]persistedEntry, d.Count(entryBytes))
	for i := range st.entries {
		pe := &st.entries[i]
		pe.name = d.String()
		pe.state = State(d.Int())
		pe.retries = d.Int()
		pe.maxRetries = d.Int()
		pe.load = d.F64()
		pe.pattern = d.String()
		pe.qosMs = d.F64()
		pe.seed = d.I64()
		pe.inSim = d.Bool()
		pe.remove = d.Bool()
		pe.drainFor = d.Int()
		pe.failReason = d.String()
		if err := d.Err(); err != nil {
			return err
		}
	}
	st.loop = &ctrl.Loop{} // bound once the world it drives is rebuilt
	return st.loop.DecodeState(d)
}

// snapshotState captures the engine's daemon section (caller holds the
// engine lock).
func (e *Engine) snapshotState() *daemonState {
	st := &daemonState{
		gen:         e.gen,
		admitted:    e.admitted,
		next:        e.next,
		guarded:     e.cfg.Guard,
		faultsArmed: e.cfg.faultsArmed(),
		loop:        e.loop,
	}
	for _, en := range e.entries {
		st.entries = append(st.entries, persistedEntry{
			name:       en.name,
			state:      en.lc.State(),
			retries:    en.lc.Retries(),
			maxRetries: en.lc.MaxRetries(),
			load:       en.load,
			pattern:    en.pattern,
			qosMs:      en.qosMs,
			seed:       en.seed,
			inSim:      en.inSim,
			remove:     en.remove,
			drainFor:   en.drainFor,
			failReason: en.failReason,
		})
	}
	return st
}

// marshal appends the full control plane's container to dst (caller
// holds the engine lock): the daemon registry/loop section plus the
// simulator, manager, drainer and (when enabled) guard sections. A cut
// headed for the writer encodes into the writer's own settled storage,
// e.writer.Buffer().
func (e *Engine) marshal(dst []byte) []byte {
	comps := []checkpoint.Checkpointable{e.snapshotState(), e.srv, e.mgr, e.drainer}
	if e.guard != nil {
		comps = append(comps, e.guard)
	}
	return checkpoint.MarshalAppend(dst, comps...)
}

// RestoreLatest rebuilds an engine from the newest valid checkpoint in
// cfg.Store and returns it with the restored sequence number. The
// restore is two-phase: first the daemon section alone is decoded to
// learn the registry and membership, then a fresh world of that shape is
// built and every section is decoded into it. Because each component's
// DecodeState fully overwrites its random streams and learning state,
// the resumed trajectory is bit-identical to an uninterrupted run —
// regardless of how the membership evolved before the cut.
func RestoreLatest(cfg Config) (*Engine, uint64, error) {
	cfg.normalize()
	if cfg.Store == nil {
		return nil, 0, ErrNoStore
	}
	// The engine (and its metrics registry) does not exist yet, so count
	// corrupt checkpoints skipped by the fallback scan locally and
	// transfer the tally once the registry is up; the hook is then
	// re-pointed at the live engine for subsequent reloads.
	corrupt := 0
	cfg.Store.SetRejectHook(func(path string, err error) {
		corrupt++
		fmt.Fprintf(os.Stderr, "twigd: skipping corrupt checkpoint %s: %v\n", path, err)
	})
	seq, data, err := cfg.Store.ReadLatest()
	if err != nil {
		return nil, 0, err
	}

	var st daemonState
	if err := checkpoint.Unmarshal(data, &st); err != nil {
		return nil, 0, fmt.Errorf("daemon: reading checkpoint %d: %w", seq, err)
	}
	if st.guarded != cfg.Guard {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d was taken with guard=%v, configured guard=%v", seq, st.guarded, cfg.Guard)
	}
	if st.faultsArmed != cfg.faultsArmed() {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d was taken with faults armed=%v, configured armed=%v", seq, st.faultsArmed, cfg.faultsArmed())
	}

	e := &Engine{cfg: cfg, metrics: NewRegistry(), resumed: seq}
	e.describeMetrics()
	if corrupt > 0 {
		e.metrics.Add("twigd_checkpoint_corrupt_total", nil, float64(corrupt))
	}
	cfg.Store.SetRejectHook(e.corruptHook())
	e.writer = checkpoint.NewAsyncWriter(cfg.Store)
	e.gen = st.gen
	e.admitted = st.admitted

	var specs []sim.ServiceSpec
	for _, pe := range st.entries {
		lc, err := RestoreLifecycle(pe.state, pe.retries, pe.maxRetries)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: checkpoint %d, service %q: %w", seq, pe.name, err)
		}
		prof, err := service.Lookup(pe.name)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: checkpoint %d: %w", seq, err)
		}
		pat, err := e.buildPattern(pe.name, pe.pattern, pe.load, prof.MaxLoadRPS)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: checkpoint %d, service %q: %w", seq, pe.name, err)
		}
		en := &entry{
			lc:         lc,
			name:       pe.name,
			load:       pe.load,
			pattern:    pe.pattern,
			qosMs:      pe.qosMs,
			seed:       pe.seed,
			pat:        pat,
			inSim:      pe.inSim,
			remove:     pe.remove,
			drainFor:   pe.drainFor,
			failReason: pe.failReason,
			series:     e.seriesFor(pe.name),
		}
		e.entries = append(e.entries, en)
		if pe.inSim {
			specs = append(specs, sim.ServiceSpec{Profile: prof, QoSTargetMs: pe.qosMs, Seed: pe.seed})
		}
	}
	if len(specs) == 0 {
		return nil, 0, fmt.Errorf("daemon: checkpoint %d hosts no services", seq)
	}

	// Build a world of the checkpointed shape, then overwrite every
	// component's state from the container. The checkpoint's own
	// validation (section framing, CRC, per-component shape checks)
	// rejects a mismatch.
	e.srv = sim.NewServer(e.simConfig(), specs)
	e.buildController()
	e.next = st.next
	e.loop = st.loop
	e.loop.Bind(e.srv, e.drainer)

	comps := []checkpoint.Checkpointable{e.srv, e.mgr, e.drainer}
	if e.guard != nil {
		comps = append(comps, e.guard)
	}
	if err := checkpoint.Unmarshal(data, comps...); err != nil {
		return nil, 0, fmt.Errorf("daemon: restoring checkpoint %d: %w", seq, err)
	}
	return e, seq, nil
}
