package daemon

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/faults"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Named operation errors. The HTTP layer maps each, and the request
// rule's sentinels of service and loadgen, to a 4xx status; tests
// assert them with errors.Is.
var (
	ErrDuplicate     = errors.New("daemon: service already registered")
	ErrNoSuchService = errors.New("daemon: no such service")
	ErrFaultsArmed   = errors.New("daemon: membership is fixed while a fault scenario is armed")
	ErrNoStore       = errors.New("daemon: no checkpoint store configured")
)

// AdmitRequest registers one service with the daemon.
type AdmitRequest struct {
	// Name must be a built-in service profile.
	Name string `json:"name"`
	// Load is the offered-load fraction of the profile's maximum RPS.
	Load float64 `json:"load"`
	// Pattern shapes the load over time: fixed, stepwise or diurnal
	// (empty means fixed).
	Pattern string `json:"pattern,omitempty"`
	// QoSTargetMs overrides the calibrated tail-latency target
	// (0 means calibrate, the Table II methodology).
	QoSTargetMs float64 `json:"qos_target_ms,omitempty"`
}

// ServiceView is the API representation of one registered service.
type ServiceView struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Retries     int     `json:"retries"`
	Load        float64 `json:"load"`
	Pattern     string  `json:"pattern"`
	QoSTargetMs float64 `json:"qos_target_ms"`
	// Reason explains the most recent placement failure (set on a failed
	// or dead-lettered service, cleared on successful placement).
	Reason string `json:"reason,omitempty"`
}

// drainTimeoutS force-completes a drain whose queue has not emptied
// after this many intervals.
const drainTimeoutS = 30

// Config assembles a daemon engine.
type Config struct {
	// Scale selects the learning profile (experiments.QuickScale or
	// PaperScale; tests may pass a smaller custom scale). A restored
	// run must be started at the same scale it was checkpointed at.
	Scale experiments.Scale
	// Seed fixes every random stream; equal seeds give bit-identical runs.
	Seed int64
	// Sim, when non-nil, replaces the default simulated platform — a
	// scenario world's SKU, DVFS range and latency tax. The measurement
	// seed and fault scenario are still taken from Seed and Faults. A
	// restored run must be started with the same Sim it was
	// checkpointed at (the platform fingerprint is verified on restore).
	Sim *sim.Config
	// Guard wraps the manager in the resilient ctrl.Guard harness.
	Guard bool
	// Faults, when non-nil and non-zero, arms the named deterministic
	// fault scenario. Runtime admission/removal is rejected while armed
	// (the injector's schedule is sized to the service count).
	Faults *faults.Scenario
	// Store enables periodic crash-consistent checkpoints (nil disables).
	Store *checkpoint.Store
	// CheckpointEvery is the checkpoint cadence in simulated seconds
	// (values < 1 become 60).
	CheckpointEvery int
	// MaxLive bounds how many services the simulator hosts at once
	// (0 means unlimited). A boundary placement over the bound fails and
	// consumes a lifecycle retry, eventually dead-lettering the service.
	MaxLive int
	// PatternOverrides substitutes a custom load pattern (e.g. a CSV
	// trace) for a service name; the same override must be supplied
	// again on restart, since a pattern closure cannot be checkpointed.
	PatternOverrides map[string]loadgen.Pattern
	// Now is the wall clock used for timing metrics (nil means time.Now).
	Now func() time.Time
}

func (c *Config) normalize() {
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 60
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

func (c Config) faultsArmed() bool { return c.Faults != nil && !c.Faults.IsZero() }

// entry is one registered service: its lifecycle plus everything needed
// to rebuild its spec and load pattern deterministically after a crash.
// It is its own checkpoint record (daemonState); pat and series are
// what bind gives it.
type entry struct {
	lc         *Lifecycle
	name       string
	load       float64
	pattern    string
	qosMs      float64
	seed       int64
	pat        loadgen.Pattern
	inSim      bool   // currently hosted by the simulator
	remove     bool   // deregister once terminal
	drainFor   int    // intervals spent draining, for the timeout
	failReason string // why the last placement failed (sticky on dead-letter)
	series     entrySeries
}

// spec is the entry's service as the simulator hosts it.
func (en *entry) spec() sim.ServiceSpec {
	return sim.ServiceSpec{Profile: service.MustLookup(en.name), QoSTargetMs: en.qosMs, Seed: en.seed}
}

func (en *entry) view() ServiceView {
	return ServiceView{
		Name:        en.name,
		State:       en.lc.State().String(),
		Retries:     en.lc.Retries(),
		Load:        en.load,
		Pattern:     en.pattern,
		QoSTargetMs: en.qosMs,
		Reason:      en.failReason,
	}
}

// Engine is the daemon control plane: the simulated server, the Twig
// manager wrapped in drain (and optionally guard) harnesses, the
// service registry with its lifecycle machines, the metrics registry,
// and the crash-consistent checkpoint cut at interval boundaries. One
// Step is one monitoring interval. The admission API mutates the
// registry under the engine lock; world changes (placement, eviction,
// weight reload) apply at the next interval boundary so the control
// loop itself stays deterministic for a given admission/drain schedule.
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	metrics *Registry
	writer  *checkpoint.AsyncWriter

	entries  []*entry
	live     []*entry // liveEntries' storage
	gen      int      // controller rebuild generation, seeds fresh learners
	admitted int      // monotonic admission counter, seeds new services

	srv     *sim.Server
	mgr     *core.Manager
	guard   *ctrl.Guard
	drainer *ctrl.Drainer
	loop    *ctrl.Loop // the interval kernel over srv and drainer, rebuilt with them
	next    int        // first interval still to execute

	reloadReq bool
	lastRes   sim.StepResult
	haveRes   bool
	resumed   uint64 // sequence restored from (0 for a fresh engine)
}

// New builds an engine hosting the initial services (at least one).
// Every initial request is validated and placed synchronously, so the
// first Step already drives a running system.
func New(cfg Config, initial []AdmitRequest) (*Engine, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("daemon: at least one initial service required")
	}
	if cfg.MaxLive > 0 && len(initial) > cfg.MaxLive {
		return nil, fmt.Errorf("daemon: %d initial services exceed the live-capacity limit %d", len(initial), cfg.MaxLive)
	}
	e := newEngine(cfg)
	// Calibrate the initial services in one fan-out instead of one
	// admission at a time: QoS targets for those that bring none, Eq. 2
	// models (buildController's) for all. register reports unknown names.
	var qos, power []string
	for _, req := range initial {
		if _, err := service.Lookup(req.Name); err != nil {
			continue
		}
		if req.QoSTargetMs == 0 {
			qos = append(qos, req.Name)
		}
		power = append(power, req.Name)
	}
	experiments.Calibrate(qos, power)
	for _, req := range initial {
		if _, err := e.register(req); err != nil {
			return nil, err
		}
	}
	// The initial membership builds the world in one shot so the fault
	// injector (when armed) is sized to the full initial service count.
	for _, en := range e.entries {
		en.inSim = true
		e.fire(en, Place)
		e.fire(en, Start)
	}
	e.gen++
	e.buildWorld()
	return e, nil
}

// newEngine sets up what a fresh and a restored engine share before
// the registry exists: the metrics registry and, with a store, the
// checkpoint writer and the reject hook, which counts into this
// engine's registry from the first fallback scan on.
func newEngine(cfg Config) *Engine {
	cfg.normalize()
	e := &Engine{cfg: cfg, metrics: NewRegistry()}
	e.describeMetrics()
	if cfg.Store != nil {
		e.writer = checkpoint.NewAsyncWriter(cfg.Store)
		cfg.Store.SetRejectHook(e.corruptHook())
	}
	return e
}

// buildWorld builds the simulator over the hosted entries, in registry
// order, and a controller for it.
func (e *Engine) buildWorld() {
	live := e.liveEntries()
	specs := make([]sim.ServiceSpec, len(live))
	for i, en := range live {
		specs[i] = en.spec()
	}
	e.srv = sim.NewServer(e.simConfig(), specs)
	e.buildController()
}

func (e *Engine) simConfig() sim.Config {
	sc := sim.DefaultConfig()
	if e.cfg.Sim != nil {
		sc = *e.cfg.Sim
	}
	sc.MeasurementSeed = e.cfg.Seed
	if e.cfg.faultsArmed() {
		sc.Faults = e.cfg.Faults
	}
	return sc
}

// register validates an AdmitRequest and appends a Pending entry.
func (e *Engine) register(req AdmitRequest) (*entry, error) {
	if other := e.find(req.Name); other != nil {
		return nil, fmt.Errorf("%w: %q is %s", ErrDuplicate, req.Name, other.lc.State())
	}
	if req.Pattern == "" {
		req.Pattern = "fixed"
	}
	en := &entry{
		lc:      NewLifecycle(DefaultMaxRetries),
		name:    req.Name,
		load:    req.Load,
		pattern: req.Pattern,
		qosMs:   req.QoSTargetMs,
		seed:    e.cfg.Seed + int64(e.admitted)*101,
	}
	if err := e.bind(en); err != nil {
		return nil, err
	}
	e.admitted++
	e.entries = append(e.entries, en)
	return en, nil
}

// bind applies the request rule to an entry, admitted or restored, each
// value by its owner (a zero QoS target is calibrated, checks first),
// and gives it what its record cannot carry: its load pattern (its
// name's override, or its pattern's) and its metric series.
func (e *Engine) bind(en *entry) error {
	prof, err := service.Lookup(en.name)
	if err != nil {
		return err
	}
	if err := service.CheckLoad(en.load); err != nil {
		return err
	}
	if en.pat, err = loadgen.Named(en.pattern, en.load, prof.MaxLoadRPS); err != nil {
		return err
	}
	if en.qosMs == 0 {
		en.qosMs = experiments.QoSTarget(en.name)
	}
	if err := service.CheckQoS(en.qosMs); err != nil {
		return err
	}
	if p, ok := e.cfg.PatternOverrides[en.name]; ok {
		en.pat = p
	}
	en.series = e.seriesFor(en.name)
	return nil
}

// liveEntries returns the hosted entries in simulator index order
// (registry order filtered to inSim). The list is the engine's own
// storage, rebuilt by every call: read it under the lock, before the
// next call.
func (e *Engine) liveEntries() []*entry {
	e.live = e.live[:0]
	for _, en := range e.entries {
		if en.inSim {
			e.live = append(e.live, en)
		}
	}
	return e.live
}

func (e *Engine) simIndexOf(target *entry) int {
	idx := 0
	for _, en := range e.entries {
		if en == target {
			if !en.inSim {
				return -1
			}
			return idx
		}
		if en.inSim {
			idx++
		}
	}
	return -1
}

// fire applies a lifecycle event to an entry and records the transition
// metric. Illegal transitions are returned to the caller untouched.
func (e *Engine) fire(en *entry, ev Event) (State, error) {
	from := en.lc.State()
	st, err := en.lc.Fire(ev)
	if err == nil {
		e.metrics.Add("twigd_lifecycle_transitions_total",
			Labels{"from": from.String(), "to": st.String()}, 1)
	}
	return st, err
}

// buildController reconstructs the manager and its wrappers for the
// current live membership at the current generation. The BDQ agent's
// network shape is fixed by the service count at construction, so a
// membership change means a fresh learner (seeded by the generation, so
// the rebuild is deterministic); the surviving services' simulator
// state is untouched.
func (e *Engine) buildController() {
	live := e.liveEntries()
	services := make([]core.ServiceConfig, len(live))
	for i, en := range live {
		services[i] = experiments.ServiceConfigFor(en.name, en.qosMs)
	}
	cfg := experiments.ManagerConfig(e.srv, e.cfg.Scale, e.cfg.Seed+int64(e.gen)*7919, services)
	e.mgr = core.NewManager(cfg, e.srv.ManagedCores())
	var inner ctrl.Controller = e.mgr
	if e.cfg.Guard {
		e.guard = ctrl.NewGuard(e.mgr, ctrl.GuardConfigFor(e.srv))
		inner = e.guard
	} else {
		e.guard = nil
	}
	e.drainer = ctrl.NewDrainer(inner, len(live))
	for i, en := range live {
		e.drainer.SetDraining(i, en.lc.State() == Draining)
	}
	e.loop = ctrl.NewLoop(e.srv, e.drainer)
}

// Admit registers a service at runtime; it is placed at the next
// interval boundary. Rejected with a named error when the name is
// already registered, the request rule refuses it (bind), or a fault
// scenario pins the membership.
func (e *Engine) Admit(req AdmitRequest) (ServiceView, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.faultsArmed() {
		return ServiceView{}, ErrFaultsArmed
	}
	en, err := e.register(req)
	if err != nil {
		return ServiceView{}, err
	}
	return en.view(), nil
}

// Drain starts graceful removal: the service stops receiving load and
// its core allocation ramps down; once its queue empties (or the drain
// times out) it stops and is evicted at the next boundary. Draining a
// still-Pending service cancels the admission. A service already
// draining or terminal is rejected with ErrIllegalTransition.
func (e *Engine) Drain(name string) (ServiceView, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.find(name)
	if en == nil {
		return ServiceView{}, fmt.Errorf("%w: %q", ErrNoSuchService, name)
	}
	if e.cfg.faultsArmed() {
		return ServiceView{}, ErrFaultsArmed
	}
	if err := e.startDrain(en); err != nil {
		return ServiceView{}, err
	}
	return en.view(), nil
}

// startDrain fires Drain on an entry. One that enters Draining starts
// its drain clock and has its load cut and cores ramped down by the
// drainer; a Pending one stops at once.
func (e *Engine) startDrain(en *entry) error {
	st, err := e.fire(en, Drain)
	if err != nil {
		return err
	}
	if st == Draining {
		en.drainFor = 0
		if idx := e.simIndexOf(en); idx >= 0 {
			e.drainer.SetDraining(idx, true)
		}
	}
	return nil
}

// Delete deregisters a service. A terminal (stopped or dead-lettered)
// service leaves the registry immediately; otherwise a drain is started
// (as by Drain) and the entry is reaped once it stops. The bool reports
// whether the entry is already gone.
func (e *Engine) Delete(name string) (ServiceView, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.find(name)
	if en == nil {
		return ServiceView{}, false, fmt.Errorf("%w: %q", ErrNoSuchService, name)
	}
	if en.lc.State().Terminal() && !en.inSim {
		e.unregister(en)
		return en.view(), true, nil
	}
	if e.cfg.faultsArmed() {
		return ServiceView{}, false, ErrFaultsArmed
	}
	if !en.lc.State().Terminal() && en.lc.State() != Draining {
		if err := e.startDrain(en); err != nil {
			return ServiceView{}, false, err
		}
	}
	en.remove = true
	return en.view(), false, nil
}

// RequestReload schedules a hot weight reload from the newest valid
// checkpoint at the next interval boundary, without dropping the
// control loop. Returns ErrNoStore when no store is configured.
func (e *Engine) RequestReload() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Store == nil {
		return ErrNoStore
	}
	e.reloadReq = true
	return nil
}

// Services lists the registry.
func (e *Engine) Services() []ServiceView {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ServiceView, len(e.entries))
	for i, en := range e.entries {
		out[i] = en.view()
	}
	return out
}

func (e *Engine) find(name string) *entry {
	for _, en := range e.entries {
		if en.name == name {
			return en
		}
	}
	return nil
}

func (e *Engine) unregister(target *entry) {
	for i, en := range e.entries {
		if en == target {
			e.entries = append(e.entries[:i], e.entries[i+1:]...)
			return
		}
	}
}

// Next returns the next interval to execute (the simulated time).
func (e *Engine) Next() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next
}

// Manager exposes the current Twig manager for -save/-load plumbing;
// callers must not race it against Step.
func (e *Engine) Manager() *core.Manager {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mgr
}

// Metrics exposes the registry backing /metrics.
func (e *Engine) Metrics() *Registry { return e.metrics }

// NumCores returns the size of the managed core set.
func (e *Engine) NumCores() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.srv.ManagedCores())
}

// Step runs one monitoring interval: apply boundary work (placements,
// evictions, weight reload), decide, actuate, observe, update the
// lifecycle machines and metrics, and cut a checkpoint on cadence.
func (e *Engine) Step() (sim.StepResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := e.cfg.Now()
	e.applyBoundary()
	t := e.next

	live := e.liveEntries()
	loads := e.loop.Loads()
	for i, en := range live {
		loads[i] = 0
		if en.lc.State() == Running {
			loads[i] = en.pat.RPS(t)
		}
	}
	res, out, err := e.loop.Step()
	if out&ctrl.DecidePanicked != 0 {
		e.metrics.Add("twigd_decide_panics_total", nil, 1)
	}
	if out&ctrl.StepRejected != 0 {
		e.metrics.Add("twigd_step_errors_total", nil, 1)
	}
	if err != nil {
		return sim.StepResult{}, fmt.Errorf("daemon: %w", err)
	}
	e.lastRes, e.haveRes = res, true
	e.next = t + 1

	// Drained detection: a draining service receives no load, so its
	// queue only shrinks; once it empties (or the drain times out) the
	// service stops and is evicted at the next boundary.
	for i, en := range live {
		if en.lc.State() != Draining {
			continue
		}
		en.drainFor++
		if res.Services[i].QueueLen == 0 || en.drainFor > drainTimeoutS {
			e.fire(en, Drained)
		}
	}

	e.updateMetrics(res, live, e.cfg.Now().Sub(start))
	if e.writer != nil && e.next%e.cfg.CheckpointEvery == 0 {
		e.writer.Submit(uint64(e.next), e.marshal(e.writer.Buffer()))
	}
	return res, nil
}

// applyBoundary performs the world changes queued since the previous
// interval, at the checkpoint-safe boundary before Decide.
func (e *Engine) applyBoundary() {
	changed := false
	// Evict terminal services still hosted by the simulator.
	for _, en := range e.entries {
		if en.inSim && en.lc.State().Terminal() {
			if idx := e.simIndexOf(en); idx >= 0 {
				if err := e.srv.RemoveService(idx); err == nil {
					en.inSim = false
					changed = true
				}
			}
		}
	}
	// Place pending admissions, honouring the live-capacity bound.
	for _, en := range e.entries {
		if en.lc.State() != Pending || en.inSim {
			continue
		}
		if e.cfg.MaxLive > 0 && len(e.liveEntries()) >= e.cfg.MaxLive {
			e.failPlacement(en, fmt.Sprintf("live-capacity limit %d reached", e.cfg.MaxLive))
			continue
		}
		if err := e.srv.AddService(en.spec()); err != nil {
			e.failPlacement(en, err.Error())
			continue
		}
		en.inSim = true
		en.failReason = ""
		changed = true
		e.fire(en, Place)
		e.fire(en, Start)
	}
	// Reap entries flagged for deregistration once they are terminal.
	for i := 0; i < len(e.entries); {
		en := e.entries[i]
		if en.remove && en.lc.State().Terminal() && !en.inSim {
			e.entries = append(e.entries[:i], e.entries[i+1:]...)
			continue
		}
		i++
	}
	if changed {
		e.gen++
		e.buildController()
	}
	if e.reloadReq {
		e.reloadReq = false
		e.doReload()
	}
}

// failPlacement records one failed boundary placement: the metric is
// bumped, the lifecycle machine consumes a retry (dead-lettering once
// the budget is spent), and the cause is kept on the entry so
// /services and /status can explain why the service is not running.
func (e *Engine) failPlacement(en *entry, cause string) {
	e.metrics.Add("twigd_placement_failures_total", nil, 1)
	st, _ := e.fire(en, Fail)
	if st == DeadLetter {
		en.failReason = fmt.Sprintf("dead-lettered after %d attempts: %s", en.lc.Retries()+1, cause)
	} else {
		en.failReason = "placement failed: " + cause
	}
}

// corruptHook returns the checkpoint-store reject callback: every
// checkpoint skipped as corrupt during a fallback scan is counted and
// named, so silent restore degradation shows up in the scrape and log.
func (e *Engine) corruptHook() func(path string, err error) {
	return func(path string, err error) {
		e.metrics.Add("twigd_checkpoint_corrupt_total", nil, 1)
		fmt.Fprintf(os.Stderr, "twigd: skipping corrupt checkpoint %s: %v\n", path, err)
	}
}

// doReload pulls the newest valid checkpoint's manager section into the
// live manager — weights, optimiser moments, replay and annealing
// position — without touching the simulator or the loop position. The
// reload is all or nothing (core.Manager.Reload); its undo snapshot is
// encoded into a settled checkpoint buffer and handed back after.
func (e *Engine) doReload() {
	_, data, err := e.cfg.Store.ReadLatest()
	if err == nil {
		var undo []byte
		undo, err = e.mgr.Reload(data, e.writer.Buffer())
		e.writer.Recycle(undo)
	}
	result := "ok"
	if err != nil {
		result = "error"
		fmt.Fprintf(os.Stderr, "twigd: weight reload failed: %v\n", err)
	}
	e.metrics.Add("twigd_weight_reloads_total", Labels{"result": result}, 1)
}

// RunTo advances the engine to the given simulated second, invoking
// hook (when non-nil) after every interval.
func (e *Engine) RunTo(seconds int, hook func(t int, res sim.StepResult)) error {
	for e.Next() < seconds {
		res, err := e.Step()
		if err != nil {
			return err
		}
		if hook != nil {
			hook(res.Time, res)
		}
	}
	return nil
}

// CheckpointNow synchronously cuts a checkpoint at the current boundary
// and waits for it to reach disk (no-op without a store). Call before
// process exit so the final state is durable regardless of cadence.
func (e *Engine) CheckpointNow() error {
	if e.writer == nil {
		return nil
	}
	e.mu.Lock()
	data := e.marshal(e.writer.Buffer())
	seq := uint64(e.next)
	e.mu.Unlock()
	e.writer.Submit(seq, data)
	return e.writer.Flush()
}

// FlushCheckpoints waits for every submitted checkpoint to reach disk
// (the e2e harness uses it to make a boundary cut durable before
// simulating a kill).
func (e *Engine) FlushCheckpoints() error {
	if e.writer == nil {
		return nil
	}
	return e.writer.Flush()
}
