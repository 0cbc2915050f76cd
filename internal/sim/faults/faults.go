// Package faults injects deterministic, seeded hardware and software
// failures into the simulated server: dropped or corrupted PMC samples,
// stale or missing tail-latency readings (log-scrape gaps), RAPL read
// failures, transient core failures, silently dropped actuation writes,
// service crash-and-restart episodes and flash-crowd load spikes. The
// paper's deployment reads counters, scrapes latencies from service logs
// and actuates DVFS/affinity on live hardware — every one of those can
// fail — and this package lets experiments measure how gracefully a
// manager degrades when they do. A Scenario plus a seed reproduces the
// identical fault schedule on every run, independently of what the
// controller under test decides.
package faults

import (
	"fmt"
	"slices"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim/pmc"
)

// Kind identifies one fault type.
type Kind int

// The fault model, one Kind per failure mode of the real deployment.
const (
	// PMCDropout loses a service's counter sample: perfmon returns all
	// zeros for the interval.
	PMCDropout Kind = iota
	// PMCCorrupt corrupts one counter of a service's sample: the reading
	// becomes NaN (Magnitude 0) or spikes by Magnitude×.
	PMCCorrupt
	// LatencyDropout loses a service's tail-latency sample: the log
	// scrape finds no fresh line and reports NaN.
	LatencyDropout
	// LatencyStale repeats the previous interval's tail-latency reading
	// (the log scraper re-reads an old line).
	LatencyStale
	// RAPLFail makes the socket power reading NaN for the interval.
	RAPLFail
	// CoreFail drops a managed core offline for the duration regardless
	// of what the controller requested; affinity writes to it are lost.
	CoreFail
	// ActuationDrop silently discards the interval's DVFS and affinity
	// writes: the previous interval's settings persist.
	ActuationDrop
	// ServiceCrash kills a service: offline for the duration (arrivals
	// rejected, in-flight requests lost, no log output), then a cold
	// restart that rebuilds its queue under degraded warm-up capacity.
	ServiceCrash
	// LoadSpike multiplies a service's offered load by Magnitude — a
	// flash crowd.
	LoadSpike
	// NodeCrash kills a whole cluster node: its simulated world is lost,
	// every hosted replica goes dark, and its heartbeats stop until the
	// outage ends, at which point the node rejoins empty. Scheduled by
	// the ClusterInjector; never appears in a per-node schedule.
	NodeCrash
	// NodePartition isolates a node from the coordinator: the node keeps
	// running its control loop but its heartbeats are lost, so its lease
	// expires, the node self-fences and the coordinator re-places its
	// replicas. Scheduled by the ClusterInjector.
	NodePartition

	numKinds
)

var kindNames = [numKinds]string{
	"pmc-dropout", "pmc-corrupt", "latency-dropout", "latency-stale",
	"rapl-fail", "core-fail", "actuation-drop", "service-crash", "load-spike",
	"node-crash", "node-partition",
}

// String names the fault kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one concrete fault occurrence in the schedule.
type Event struct {
	Kind Kind
	// Service is the victim service index, -1 for machine-scoped faults.
	Service int
	// Core is the victim core ID (CoreFail only; -1 otherwise).
	Core int
	// Counter is the corrupted PMC index (PMCCorrupt only; -1 otherwise).
	Counter int
	// Start is the first interval the fault is active; Duration counts
	// intervals.
	Start, Duration int
	// Magnitude scales the fault effect: the load multiplier of a
	// LoadSpike, the spike factor of a PMCCorrupt (0 means the counter
	// reads NaN).
	Magnitude float64
}

// ActiveAt reports whether the event covers interval t.
func (e Event) ActiveAt(t int) bool { return t >= e.Start && t < e.Start+e.Duration }

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("%v@%d+%d", e.Kind, e.Start, e.Duration)
	if e.Service >= 0 {
		s += fmt.Sprintf(" svc%d", e.Service)
	}
	if e.Core >= 0 {
		s += fmt.Sprintf(" core%d", e.Core)
	}
	return s
}

// Scenario parameterises a fault schedule. Rate fields are expected
// events per 1000 intervals per victim (service or core); every
// rate-scheduled event lasts 1..MaxFaultS intervals. Crash episodes are
// scheduled deterministically by period, rotating through the services.
// The zero Scenario injects nothing.
type Scenario struct {
	Name string

	PMCDropoutPerKs    float64
	PMCCorruptPerKs    float64
	LatencyDropPerKs   float64
	LatencyStalePerKs  float64
	RAPLFailPerKs      float64
	CoreFailPerKs      float64
	ActuationDropPerKs float64
	LoadSpikePerKs     float64

	// LoadSpikeFactor multiplies the offered load during a spike
	// (default 3).
	LoadSpikeFactor float64
	// MaxFaultS bounds the duration of rate-scheduled faults (default 8).
	MaxFaultS int

	// CrashPeriodS, when positive, crashes one service every period
	// (rotating through the services): offline for CrashOfflineS
	// intervals (default 10), then a cold restart whose capacity ramps
	// back up over CrashWarmupS intervals.
	CrashPeriodS  int
	CrashOfflineS int
	CrashWarmupS  int
}

// IsZero reports whether the scenario injects no faults at all.
func (sc Scenario) IsZero() bool {
	return sc.PMCDropoutPerKs == 0 && sc.PMCCorruptPerKs == 0 &&
		sc.LatencyDropPerKs == 0 && sc.LatencyStalePerKs == 0 &&
		sc.RAPLFailPerKs == 0 && sc.CoreFailPerKs == 0 &&
		sc.ActuationDropPerKs == 0 && sc.LoadSpikePerKs == 0 &&
		sc.CrashPeriodS == 0
}

func (sc Scenario) withDefaults() Scenario {
	if sc.LoadSpikeFactor <= 0 {
		sc.LoadSpikeFactor = 3
	}
	if sc.MaxFaultS <= 0 {
		sc.MaxFaultS = 8
	}
	if sc.CrashPeriodS > 0 && sc.CrashOfflineS <= 0 {
		sc.CrashOfflineS = 10
	}
	if sc.CrashPeriodS > 0 && sc.CrashWarmupS < 0 {
		sc.CrashWarmupS = 0
	}
	return sc
}

// scenarios are the built-in tiers, in the order Names lists them:
// "none", "sensor" (dropped, stale and corrupted measurements),
// "actuator" (lost DVFS/affinity writes and transient core failures),
// "crash" (periodic crash-and-restart episodes plus PMC corruption),
// "flashcrowd" (load spikes) and "hostile" (all of the above).
var scenarios = []Scenario{
	{Name: "none"},
	{Name: "sensor", PMCDropoutPerKs: 30, PMCCorruptPerKs: 20, LatencyDropPerKs: 30, LatencyStalePerKs: 20, RAPLFailPerKs: 30},
	{Name: "actuator", ActuationDropPerKs: 60, CoreFailPerKs: 8},
	{Name: "crash", PMCCorruptPerKs: 25, CrashPeriodS: 400, CrashOfflineS: 15, CrashWarmupS: 10},
	{Name: "flashcrowd", LoadSpikePerKs: 15, LoadSpikeFactor: 3},
	{Name: "hostile", PMCDropoutPerKs: 30, PMCCorruptPerKs: 20, LatencyDropPerKs: 30, LatencyStalePerKs: 20, RAPLFailPerKs: 30,
		ActuationDropPerKs: 40, CoreFailPerKs: 6, LoadSpikePerKs: 10, LoadSpikeFactor: 3,
		CrashPeriodS: 500, CrashOfflineS: 15, CrashWarmupS: 10},
}

// Named returns the built-in scenario of that name; "" is "none".
func Named(name string) (Scenario, error) {
	if name == "" {
		name = "none"
	}
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("faults: unknown scenario %q (want one of %v)", name, Names())
}

// MustNamed is Named for known-good scenario names.
func MustNamed(name string) Scenario {
	sc, err := Named(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// Names lists the built-in scenarios.
func Names() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return names
}

// Injector turns a Scenario into a concrete, reproducible fault schedule.
// Advance must be called exactly once per simulated interval, in order;
// the schedule depends only on (Scenario, seed, victim counts), never on
// simulator or controller state, so the same inputs replay the identical
// fault sequence. Its victims are the services [0, n) and the managed
// cores.
type Injector struct {
	schedule[Event]
	sc    Scenario
	cores []int
}

// NewInjector builds an injector for numServices services and the given
// managed core IDs.
func NewInjector(sc Scenario, seed int64, numServices int, managedCores []int) *Injector {
	sc = sc.withDefaults()
	return &Injector{
		schedule: newSchedule[Event](seed, sc.Name, numServices, sc.MaxFaultS),
		sc:       sc,
		cores:    append([]int(nil), managedCores...),
	}
}

// Advance moves to the next interval and returns the faults active in it.
// The returned slice is owned by the injector; callers must copy it to
// retain it.
func (inj *Injector) Advance() []Event {
	t := inj.tick()

	// Rate-scheduled faults, drawn in a fixed order (kind-major, then
	// victim) so the schedule is reproducible.
	inj.perService(t, PMCDropout, inj.sc.PMCDropoutPerKs, 0)
	for svc := 0; svc < inj.n; svc++ {
		if inj.draw(inj.sc.PMCCorruptPerKs) {
			mag := 0.0 // NaN reading
			if inj.rng.Float64() < 0.5 {
				mag = 100 + inj.rng.Float64()*900 // spike
			}
			inj.add(Event{Kind: PMCCorrupt, Service: svc, Core: -1,
				Counter: inj.rng.Intn(int(pmc.NumCounters)),
				Start:   t, Duration: inj.duration(), Magnitude: mag})
		}
	}
	inj.perService(t, LatencyDropout, inj.sc.LatencyDropPerKs, 0)
	inj.perService(t, LatencyStale, inj.sc.LatencyStalePerKs, 0)
	inj.machine(t, RAPLFail, inj.sc.RAPLFailPerKs)
	for _, c := range inj.cores {
		if inj.draw(inj.sc.CoreFailPerKs) {
			inj.add(Event{Kind: CoreFail, Service: -1, Core: c, Counter: -1,
				Start: t, Duration: inj.duration()})
		}
	}
	inj.machine(t, ActuationDrop, inj.sc.ActuationDropPerKs)
	inj.perService(t, LoadSpike, inj.sc.LoadSpikePerKs, inj.sc.LoadSpikeFactor)

	// Deterministic periodic crash episodes, rotating through services.
	if p := inj.sc.CrashPeriodS; p > 0 && inj.n > 0 && t > 0 && t%p == 0 {
		svc := (t/p - 1) % inj.n
		inj.add(Event{Kind: ServiceCrash, Service: svc, Core: -1, Counter: -1,
			Start: t, Duration: inj.sc.CrashOfflineS})
	}
	return inj.active
}

// perService draws a kind's rate-scheduled events, one draw a service.
func (inj *Injector) perService(t int, kind Kind, ratePerKs, mag float64) {
	for svc := 0; svc < inj.n; svc++ {
		if inj.draw(ratePerKs) {
			inj.add(Event{Kind: kind, Service: svc, Core: -1, Counter: -1,
				Start: t, Duration: inj.duration(), Magnitude: mag})
		}
	}
}

// machine draws a machine-scoped kind's rate-scheduled event.
func (inj *Injector) machine(t int, kind Kind, ratePerKs float64) {
	if inj.draw(ratePerKs) {
		inj.add(Event{Kind: kind, Service: -1, Core: -1, Counter: -1,
			Start: t, Duration: inj.duration()})
	}
}

// WarmupS returns the cold-restart warm-up length of crash episodes.
func (inj *Injector) WarmupS() int { return inj.sc.CrashWarmupS }

// draws reports whether Advance could have drawn ev: a per-node kind
// naming a service in [0, n), a managed core or a PMC counter exactly
// where its kind has one (−1 elsewhere), at a magnitude its kind draws.
// The simulator indexes its services, cores and samples by these.
func (inj *Injector) draws(ev Event) bool {
	service := ev.Service >= 0 && ev.Service < inj.n && ev.Core == -1
	switch ev.Kind {
	case PMCDropout, LatencyDropout, LatencyStale, ServiceCrash:
		return service && ev.Counter == -1
	case PMCCorrupt:
		return service && ev.Counter >= 0 && ev.Counter < int(pmc.NumCounters) &&
			(ev.Magnitude == 0 || ev.Magnitude >= 100 && ev.Magnitude < 1000)
	case LoadSpike:
		return service && ev.Counter == -1 && ev.Magnitude == inj.sc.LoadSpikeFactor
	case CoreFail:
		return ev.Service == -1 && ev.Counter == -1 && slices.Contains(inj.cores, ev.Core)
	case RAPLFail, ActuationDrop:
		return ev.Service == -1 && ev.Core == -1 && ev.Counter == -1
	}
	return false
}

func encodeEvent(e *checkpoint.Encoder, ev Event) {
	e.Int(int(ev.Kind))
	e.Int(ev.Service)
	e.Int(ev.Core)
	e.Int(ev.Counter)
	e.Int(ev.Start)
	e.Int(ev.Duration)
	e.F64(ev.Magnitude)
}

// decodeEvent reads one Event and refuses one this injector could not
// have drawn.
func (inj *Injector) decodeEvent(d *checkpoint.Decoder) (Event, error) {
	ev := Event{
		Kind:      Kind(d.Int()),
		Service:   d.Int(),
		Core:      d.Int(),
		Counter:   d.Int(),
		Start:     d.Int(),
		Duration:  d.Int(),
		Magnitude: d.F64(),
	}
	if err := d.Err(); err != nil {
		return Event{}, err
	}
	if !inj.draws(ev) {
		return Event{}, fmt.Errorf("faults: checkpoint holds %v@%d+%d (service %d, core %d, counter %d, magnitude %g), which this injector cannot draw",
			ev.Kind, ev.Start, ev.Duration, ev.Service, ev.Core, ev.Counter, ev.Magnitude)
	}
	return ev, nil
}

const eventEncodedBytes = 7 * 8

// EncodeState writes the injector's schedule position: interval clock,
// currently active events, the full event log and the RNG position,
// behind the scenario's name and the service count as a fingerprint.
func (inj *Injector) EncodeState(e *checkpoint.Encoder) { inj.encodeState(e, encodeEvent) }

// DecodeState restores schedule position into an injector built with the
// same scenario and victim counts. It refuses an event this injector
// could not have drawn.
func (inj *Injector) DecodeState(d *checkpoint.Decoder) error {
	return inj.decodeState(d, eventEncodedBytes, inj.decodeEvent)
}
