package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/sim"
)

// warmIntervals is how many intervals a run issues before its clock
// starts. They belong to set-up: the fleet builds its learners on the
// first Coordinator.Step, not in cluster.New, and whatever else a loop
// defers to its first pass through is construction too. They count for
// correctness (invariants, digest, failures) like every interval. At
// least 1.
const warmIntervals = 1

// recorder measures one run from outside the program: one host time
// sample per interval, process CPU time and heap allocations over the
// timed phase, the simulated outcome of the final third of the run, the
// per-interval invariants and the trajectory digest. It is driven by
// the single benchmark goroutine.
//
// The timed phase starts when the warm-up intervals are done (the
// clock) and ends with the last interval.
type recorder struct {
	intervals  int // intervals the run will attempt
	windowFrom int // first interval of the final third

	ticks   int    // intervals done
	clockOn bool   // the warm-up is over
	onClock func() // called once, just before the clock starts

	start, last time.Time
	samples     []int64 // host ns per timed interval
	ref         hostRef // reference-kernel samples taken between intervals
	liveAfterGC uint64  // heap that survived the last collection
	heapNow     uint64  // heap at the last boundary, after its collection if it had one
	burst       uint64  // largest heap growth one interval has shown
	peakHeap    uint64  // largest heap seen at an interval boundary
	heapSample  [1]metrics.Sample
	gcPercent   int // the runtime's setting, restored when the run ends
	wallNs      int64
	cpuNs       int64
	mallocs     uint64
	gcCycles    uint32
	gcPauseNs   uint64
	minorFaults int64

	// prefault keeps the heap resident ahead of the program (see collect);
	// resident is how far that has got. The own* fields are what the
	// benchmark's own memory work cost since the clock started (before it:
	// since the run began), which is neither the workload's nor set-up's.
	prefault  bool
	resident  uint64
	ownWallNs int64
	ownCPUNs  int64
	ownFaults int64
	ownGCs    uint32

	// Simulated outcome over the final third: QoS samples met (a sample
	// is one service-interval on a node, one replica's met share on the
	// fleet) over samples taken, and managed-socket energy.
	qosMet    float64
	qosN      int
	energyJ   float64
	completed int64 // requests completed over the whole run

	// liveHeapMB is the heap the finished world still holds, measured
	// after a collection once the run's output checks are done.
	liveHeapMB float64

	failed   int      // intervals with a panic, rejection, Step error or invariant failure
	failures []string // the first few, for the report

	digest hash.Hash
	buf    [8]byte
	// badThis marks the interval in flight as failed, so an interval with
	// several broken invariants still counts once.
	badThis bool
}

func newRecorder(intervals int, prefault bool) *recorder {
	return &recorder{
		intervals:  intervals,
		prefault:   prefault,
		windowFrom: intervals - intervals/3,
		samples:    make([]int64, 0, intervals),
		digest:     sha256.New(),
		heapSample: [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// begin starts the run. The heap is collected first so every run starts
// from the same GC state.
//
// From here to the end of the run the collector keeps the runtime's
// default rule — collect when the heap has doubled since the last
// collection — but the recorder applies it itself, synchronously at
// interval boundaries, with the runtime's concurrent trigger off. When
// the background collector raced the fleet's 100 MB replay-buffer
// allocations, ten runs of the same code split into two modes (2.4 GB
// peak RSS at 68 intervals/s, 3.1 GB at 52) by thread timing alone.
// Applied at boundaries the memory state is a function of the
// allocation sequence, which repeats. Collections stay in wall and CPU
// time; they are not part of any interval sample.
func (r *recorder) begin() {
	r.gcPercent = debug.SetGCPercent(-1) // first: nothing is scavenged from here on
	r.collect()
	r.last = time.Now()
}

// startClock opens the timed phase.
func (r *recorder) startClock() {
	if r.onClock != nil {
		r.onClock()
	}
	r.clockOn = true
	r.ownWallNs, r.ownCPUNs, r.ownFaults, r.ownGCs = 0, 0, 0, 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs
	r.gcCycles = ms.NumGC
	r.gcPauseNs = ms.PauseTotalNs
	r.cpuNs, r.minorFaults = processUsage()
	r.start = time.Now()
	r.ref.sample()
}

// tick closes the interval in flight: one host-time sample once the
// clock runs.
func (r *recorder) tick() {
	now := time.Now()
	if r.clockOn {
		r.samples = append(r.samples, now.Sub(r.last).Nanoseconds())
	}
	r.last = now
	r.ticks++
	if r.badThis {
		r.failed++
		r.badThis = false
	}
	if r.clockOn && r.ref.due(now) {
		r.ref.sample()
		r.last = time.Now() // the kernel is not part of the next interval
	}
	h := r.heapBytes()
	if h > r.peakHeap {
		r.peakHeap = h
	}
	if h > r.heapNow && h-r.heapNow > r.burst {
		r.burst = h - r.heapNow
	}
	r.heapNow = h
	if h >= 2*r.liveAfterGC {
		r.collect()
		r.last = time.Now() // nor is the collection
	}
	if !r.clockOn && r.ticks == warmIntervals {
		r.startClock()
		r.last = time.Now()
	}
}

// collect runs one collection and notes what survived it: the next one
// is due when the heap reaches twice that.
//
// With prefault on it then makes sure the heap is resident as far as
// the program can take it before that next collection: up to the
// trigger, plus the largest growth a single interval has shown so far,
// because the rule is applied at boundaries only and the heap passes
// the trigger by up to one interval's allocations (the fleet builds
// seven 115 MB learners in its first interval and one more at every
// failover). On this hypervisor a page's first touch costs ≈ 10 µs of
// system time — the fleet's 870 000 of them were 8 s of a 16 s run, and
// the share moved with the host from run to run — a cost of a fresh
// process that the manager, which runs for days, pays once. The size
// follows from the collection rule and the program's own heap, so it
// moves with the program. What this costs is the benchmark's: it is
// kept out of wall and CPU time, and out of set-up.
func (r *recorder) collect() {
	gc := func() {
		runtime.GC()
		r.heapNow = r.heapBytes()
		r.liveAfterGC = max(r.heapNow, minHeapBytes)
	}
	if r.clockOn {
		gc()
	} else {
		r.own(gc) // a collection set-up would not have run
	}
	if want := 2*r.liveAfterGC + r.burst; r.prefault && want > r.resident {
		r.own(func() {
			touch(want - r.heapNow)
			runtime.GC()
		})
		r.resident = want
		r.ownGCs++
	}
}

// own runs a piece of the benchmark's own memory work and books what it
// cost.
func (r *recorder) own(work func()) {
	t0 := time.Now()
	c0, f0 := processUsage()
	work()
	c1, f1 := processUsage()
	r.ownWallNs += time.Since(t0).Nanoseconds()
	r.ownCPUNs += c1 - c0
	r.ownFaults += f1 - f0
}

// touch allocates n bytes in chunks, which fill the heap's free pages
// first and then new ones, writes to every page and drops them. The
// caller collects next, which leaves the pages free in the heap and
// resident.
func touch(n uint64) {
	const chunk = 8 << 20
	var ballast [][]byte
	for ; n > 0; n -= min(n, chunk) {
		b := make([]byte, min(n, chunk))
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1
		}
		ballast = append(ballast, b)
	}
	runtime.KeepAlive(ballast)
}

// minHeapBytes is the runtime's own floor on the heap size that
// triggers a collection.
const minHeapBytes = 4 << 20

// heapBytes is the heap occupied by objects, live or not yet swept.
func (r *recorder) heapBytes() uint64 {
	metrics.Read(r.heapSample[:])
	return r.heapSample[0].Value.Uint64()
}

// end closes the timed phase. The reference kernel's own time (one
// busy goroutine, so wall and CPU alike) is not the workload's, nor is
// what keeping the heap resident took. A run no longer than its warm-up
// has no timed phase.
func (r *recorder) end() {
	if !r.clockOn {
		r.startClock()
	}
	r.wallNs = time.Since(r.start).Nanoseconds() - r.ref.spentNs - r.ownWallNs
	cpu, faults := processUsage()
	r.cpuNs = cpu - r.cpuNs - r.ref.spentNs - r.ownCPUNs
	r.minorFaults = faults - r.minorFaults - r.ownFaults
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
	r.gcCycles = ms.NumGC - r.gcCycles - r.ownGCs
	r.gcPauseNs = ms.PauseTotalNs - r.gcPauseNs
	debug.SetGCPercent(r.gcPercent)
}

// fail marks the interval in flight as failed.
func (r *recorder) fail(t int, format string, args ...any) {
	r.badThis = true
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("t=%d: ", t)+fmt.Sprintf(format, args...))
	}
}

func (r *recorder) hashF64(v float64) {
	binary.LittleEndian.PutUint64(r.buf[:], math.Float64bits(v))
	r.digest.Write(r.buf[:])
}

func (r *recorder) hashInt(v int) {
	binary.LittleEndian.PutUint64(r.buf[:], uint64(int64(v)))
	r.digest.Write(r.buf[:])
}

func (r *recorder) digestHex() string { return hex.EncodeToString(r.digest.Sum(nil)) }

// observeStep folds one node interval into the digest, the final-third
// outcome and the invariants: allocation echoed by the simulator inside
// the machine, frequency inside the node's DVFS range, finite energy
// and power. A missing or NaN p99 counts as a QoS violation.
func (r *recorder) observeStep(t int, res sim.StepResult, numCores int, loGHz, hiGHz float64) {
	inWindow := t >= r.windowFrom
	for i := range res.Services {
		sv := &res.Services[i]
		r.hashF64(sv.P99Ms)
		r.hashInt(sv.NumCores)
		r.hashF64(sv.FreqGHz)
		r.completed += int64(sv.Completed)
		if sv.NumCores < 0 || sv.NumCores > numCores {
			r.fail(t, "service %d runs on %d of %d managed cores", i, sv.NumCores, numCores)
		}
		if sv.NumCores > 0 && !inRange(sv.FreqGHz, loGHz, hiGHz) {
			r.fail(t, "service %d frequency %v GHz outside [%v,%v]", i, sv.FreqGHz, loGHz, hiGHz)
		}
		if inWindow {
			r.qosN++
			if sv.P99Ms <= sv.QoSTargetMs { // false for NaN
				r.qosMet++
			}
		}
	}
	r.hashF64(res.EnergyJ)
	if !isFinite(res.EnergyJ) || res.EnergyJ < 0 || !isFinite(res.TruePowerW) {
		r.fail(t, "energy %v J / power %v W not finite", res.EnergyJ, res.TruePowerW)
	}
	if inWindow {
		r.energyJ += res.EnergyJ
	}
}

// checkAssignment verifies a controller decision the simulator accepted
// from outside: every core inside the managed set, every frequency
// inside the node's DVFS range.
func (r *recorder) checkAssignment(t int, asg sim.Assignment, managed map[int]bool, loGHz, hiGHz float64) {
	for i, a := range asg.PerService {
		for _, c := range a.Cores {
			if !managed[c] {
				r.fail(t, "service %d assigned core %d outside the managed set", i, c)
			}
		}
		if len(a.Cores) > 0 && !inRange(a.FreqGHz, loGHz, hiGHz) {
			r.fail(t, "service %d assigned %v GHz outside [%v,%v]", i, a.FreqGHz, loGHz, hiGHz)
		}
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// inRange is false for NaN.
func inRange(v, lo, hi float64) bool { return v >= lo-1e-9 && v <= hi+1e-9 }

func coreSet(cores []int) map[int]bool {
	m := make(map[int]bool, len(cores))
	for _, c := range cores {
		m[c] = true
	}
	return m
}

// processUsage is user+system CPU time of the whole process, every
// thread included — the cycles the manager takes from colocated
// services — and its minor page faults so far.
func processUsage() (cpuNs, minorFaults int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Minflt
}

// liveHeapMB collects the heap and returns what is still reachable: the
// memory the program must hold once the garbage is gone.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the p-quantile (0..1) of xs by the nearest-rank
// rule on a sorted copy; 0 for an empty slice.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int64(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(p*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return float64(cp[idx])
}

// hostStamp is carried by every result: numbers from different hosts or
// kernels are not comparable.
type hostStamp struct {
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"gemm_kernel"`
	CPUFeatures string `json:"cpu_features"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

func readHostStamp() hostStamp {
	model := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return hostStamp{
		NProc:       runtime.NumCPU(),
		CPUModel:    model,
		Kernel:      mat.KernelName(),
		CPUFeatures: mat.CPUFeatures(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}
