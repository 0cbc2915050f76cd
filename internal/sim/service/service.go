// Package service models latency-critical cloud services as open-loop
// queueing systems. A service receives Poisson request arrivals; each
// request carries a log-normally distributed amount of work (measured in
// GHz·core·seconds); the cores allocated to the service form a fluid
// server whose aggregate capacity depends on core count, per-core DVFS
// setting, the service's frequency sensitivity, software scalability and
// the interference inflation imposed by colocated services. This
// reproduces the behaviours Twig's controller exploits: tail latency
// rises with load, falls with cores and frequency, and blows up
// exponentially at saturation (the Table II capacity knee).
package service

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/rng"
)

// Profile is the static characterisation of one service.
type Profile struct {
	// Name identifies the service ("masstree", "moses", ...).
	Name string
	// MaxLoadRPS is the saturation load with a full socket at the
	// highest DVFS setting (Table II).
	MaxLoadRPS float64
	// RhoMax is the target utilisation of a full socket at MaxLoadRPS;
	// it calibrates the mean work per request.
	RhoMax float64
	// WorkSigma is the σ of the log-normal request-work distribution;
	// larger values give heavier latency tails.
	WorkSigma float64
	// FreqSensitivity α ∈ [0,1]: the fraction of request work that
	// scales with core frequency (compute-bound ≈ 1, memory-bound < 1).
	FreqSensitivity float64
	// SerialFraction is the Amdahl serial fraction limiting software
	// scalability across cores.
	SerialFraction float64

	// Interference characterisation.
	// BWPerWork is the memory bandwidth demand in GB per unit of work.
	BWPerWork float64
	// BWSensitivity scales how much bandwidth contention inflates work.
	BWSensitivity float64
	// CacheMB is the LLC footprint the service wants.
	CacheMB float64
	// CacheSensitivity scales how much cache pressure inflates work.
	CacheSensitivity float64

	// Microarchitectural rates used to synthesise PMCs.
	IPCBase        float64 // instructions per cycle when uncontended
	BranchRatio    float64 // branch instructions per instruction
	BranchMissRate float64 // mispredictions per branch
	MemAccessRate  float64 // LLC-bound accesses per instruction
	L1DRate        float64 // L1D accesses per instruction
	L1IRate        float64 // L1I accesses per instruction
	UopFactor      float64 // µops per instruction
}

// ReferenceFreqGHz is the frequency that defines one unit of work per
// core-second (the platform's maximum DVFS setting).
const ReferenceFreqGHz = 2.0

// MeanWork returns the calibrated mean request work in GHz·core·seconds:
// at MaxLoadRPS a full socket of fullCores cores at the reference
// frequency runs at utilisation RhoMax.
func (p Profile) MeanWork(fullCores int) float64 {
	return p.RhoMax * float64(fullCores) * ReferenceFreqGHz / p.MaxLoadRPS
}

// CapacityGHz returns the aggregate service capacity, in work units per
// second, of an allocation described by per-core (shareₖ, freqₖ) pairs,
// before interference inflation. Frequency sensitivity blends the actual
// frequency with the reference; the Amdahl term models software
// scalability limits.
func (p Profile) CapacityGHz(shares, freqs []float64) float64 {
	if len(shares) != len(freqs) {
		panic("service: shares/freqs length mismatch")
	}
	var total, effCores float64
	for i, sh := range shares {
		if sh <= 0 {
			continue
		}
		rate := p.FreqSensitivity*freqs[i] + (1-p.FreqSensitivity)*ReferenceFreqGHz
		total += sh * rate
		effCores += sh
	}
	if effCores > 1 && p.SerialFraction > 0 {
		total /= 1 + p.SerialFraction*(effCores-1)
	}
	return total
}

// Request is one in-flight request.
type Request struct {
	Arrival float64 // absolute seconds
	Work    float64 // remaining work, GHz·core·seconds
}

// IntervalStats summarises one monitoring interval of a service.
type IntervalStats struct {
	// Arrivals and Completed count requests in this interval.
	Arrivals  int
	Completed int
	// P99Ms and P95Ms are tail-latency percentiles over the trailing
	// measurement window (LatencyWindowIntervals); MeanMs is the mean
	// sojourn of requests completed this interval. All in milliseconds.
	P99Ms, P95Ms, MeanMs float64
	// MaxMs is the worst sojourn observed this interval.
	MaxMs float64
	// QueueLen is the backlog carried into the next interval.
	QueueLen int
	// WorkDone is the work processed, in GHz·core·seconds.
	WorkDone float64
	// BusySeconds is the wall-clock time the fluid server was busy.
	BusySeconds float64
	// CapacityGHz is the capacity that was available.
	CapacityGHz float64
	// Dropped counts arrivals discarded because the backlog cap was hit
	// (deep overload only).
	Dropped int
	// InflationApplied is the interference inflation factor in effect.
	InflationApplied float64
}

// LatencyWindowIntervals is the number of trailing monitoring intervals
// whose completed-request sojourns back the reported p99 — the log-file
// interface of Sec. IV computes the latency distribution over a short
// trailing window rather than a single second, which keeps the
// percentile estimate stable at moderate request rates.
const LatencyWindowIntervals = 2

// Instance is the mutable runtime state of one service.
type Instance struct {
	Profile  Profile
	meanWork float64
	lnMu     float64

	rng     *rng.Rand
	pending []Request
	now     float64

	// window holds the per-interval sojourn samples (seconds) backing
	// the trailing-window latency percentiles, oldest interval first.
	// Every run is sorted ascending; windowTail relies on it.
	window [][]float64

	// Storage reused across intervals: this interval's arrival instants
	// and their work (its logarithm until the vector exp), the queue
	// buffer pending swaps with, the sojourn buffer sortRun last left
	// over, and its bucket counts. None of it is state; EncodeState
	// ignores it.
	arrivals []float64
	work     []float64
	requeue  []Request
	spare    []float64
	counts   []int32

	// maxBacklog bounds the pending queue during deep saturation.
	maxBacklog int
}

// NewInstance creates a service instance calibrated for a full socket of
// fullCores cores.
func NewInstance(p Profile, fullCores int, seed int64) *Instance {
	if p.MaxLoadRPS <= 0 || p.RhoMax <= 0 {
		panic(fmt.Sprintf("service: profile %q missing load calibration", p.Name))
	}
	mean := p.MeanWork(fullCores)
	// The pending queue is bounded at roughly a tenth of a second of
	// maximum load — real LC services bound connection backlogs at a few
	// hundred requests, and anything deeper is hopeless once it is far
	// past the tail-latency target. Saturation therefore recovers within
	// one monitoring interval, as it does on the paper's testbed where
	// queues hold milliseconds of work.
	backlog := int(0.1 * p.MaxLoadRPS)
	if backlog < 200 {
		backlog = 200
	}
	return &Instance{
		Profile:    p,
		meanWork:   mean,
		lnMu:       math.Log(mean) - p.WorkSigma*p.WorkSigma/2,
		rng:        rng.New(seed),
		maxBacklog: backlog,
	}
}

// MeanWork returns the calibrated mean request work.
func (s *Instance) MeanWork() float64 { return s.meanWork }

// Now returns the instance's current simulated time in seconds.
func (s *Instance) Now() float64 { return s.now }

// QueueLen returns the current backlog.
func (s *Instance) QueueLen() int { return len(s.pending) }

// ResetQueue drops all pending requests (used between experiments).
func (s *Instance) ResetQueue() { s.pending = s.pending[:0] }

// RunInterval advances the service by dt seconds with Poisson arrivals at
// rateRPS and the given aggregate capacity (work units per second, after
// frequency scaling) under the given interference inflation factor
// (≥ 1; inflation multiplies every request's work).
func (s *Instance) RunInterval(rateRPS, capacity, inflation, dt float64) IntervalStats {
	if inflation < 1 {
		inflation = 1
	}
	start := s.now
	end := start + dt
	st := IntervalStats{CapacityGHz: capacity, InflationApplied: inflation}

	// Generate Poisson arrivals within [start, end), each with log-normal
	// work: one pass on a cursor draws them in stream order, each
	// arrival's gap then its work's logarithm; then one vector exp over
	// the logarithms. A request's work is that × inflation, taken where
	// the request is formed.
	arrivals, work := s.arrivals[:0], s.work[:0]
	if rateRPS > 0 {
		c := s.rng.Cursor()
		arrivals, work, c = c.Poisson(arrivals, work, start, end, rateRPS, s.lnMu, s.Profile.WorkSigma)
		c.Close()
	}
	mat.Exp(work)
	s.arrivals, s.work = arrivals, work
	st.Arrivals = len(arrivals)

	if capacity <= 0 {
		// No capacity: everything queues. (P95Ms stays 0 on this path;
		// the trajectory digests hold that value, see DESIGN.md, "The
		// simulator and its fault model".)
		queued := len(s.pending)
		s.pending = append(s.pending, make([]Request, len(arrivals))...)
		for i, at := range arrivals {
			s.pending[queued+i] = Request{Arrival: at, Work: work[i] * inflation}
		}
		st.QueueLen = len(s.pending)
		s.now = end
		if len(s.pending) > 0 {
			st.P99Ms = (end - s.pending[0].Arrival) * 1000
			st.MaxMs = st.P99Ms
			st.MeanMs = st.P99Ms
		}
		s.capBacklog(&st)
		return st
	}

	// The backlog requests arrived earlier; process FIFO by arrival, the
	// backlog first. What cannot finish goes to the other queue buffer.
	queue := s.pending
	s.pending = s.requeue[:0]
	sojourns := s.spare[:0]
	s.spare = nil
	free := start // when the fluid server is next free
	for i, n := 0, len(queue)+len(arrivals); i < n; i++ {
		var r Request
		if i < len(queue) {
			r = queue[i]
		} else {
			k := i - len(queue)
			r = Request{Arrival: arrivals[k], Work: work[k] * inflation}
		}
		begin := free
		if r.Arrival > begin {
			begin = r.Arrival
		}
		if begin >= end {
			// Cannot start this interval: requeue untouched.
			s.pending = append(s.pending, r)
			continue
		}
		need := r.Work / capacity
		finish := begin + need
		if finish <= end {
			st.WorkDone += r.Work
			st.BusySeconds += finish - begin
			free = finish
			sojourns = append(sojourns, finish-r.Arrival)
			st.Completed++
			continue
		}
		// Partially processed: consume the remaining interval.
		processed := (end - begin) * capacity
		st.WorkDone += processed
		st.BusySeconds += end - begin
		r.Work -= processed
		s.pending = append(s.pending, r)
		free = end
	}
	s.requeue = queue[:0]

	s.now = end
	st.QueueLen = len(s.pending)
	s.capBacklog(&st)

	// Push this interval's samples, sorted, into the trailing window; the
	// run that falls out lends its storage to the sort, and whichever
	// buffer the sort leaves over to the next interval.
	var expired []float64
	if len(s.window) == LatencyWindowIntervals {
		expired = s.window[0]
		s.window = s.window[:copy(s.window, s.window[1:])]
	}
	sojourns, s.spare = s.sortRun(sojourns, expired)
	s.window = append(s.window, sojourns)

	if n := len(sojourns); n > 0 {
		st.MaxMs = sojourns[n-1] * 1000
		var sum float64
		for _, v := range sojourns {
			sum += v
		}
		st.MeanMs = sum / float64(n) * 1000
	}
	if p99, p95, ok := s.windowTail(); ok {
		st.P99Ms = p99 * 1000
		st.P95Ms = p95 * 1000
	} else if len(s.pending) > 0 {
		// Nothing completed recently: report the age of the oldest
		// queued request as the latency proxy the log-file would show.
		age := (end - s.pending[0].Arrival) * 1000
		st.P99Ms, st.P95Ms, st.MeanMs, st.MaxMs = age, age, age, age
	}
	return st
}

// Thresholds of sortRun, measured on the reference host over runs that
// differ from call to call (a repeated input flatters slices.Sort, whose
// branches the predictor then knows). Under sortRunMin elements
// slices.Sort is an insertion sort and the passes below only add to it;
// from there on they win (16 elements: 133 ns against 215). A bucket of
// up to sortBucketInsertion elements is left to the insertion pass, which
// beats slices.Sort on buckets of up to ~250 elements in random order and
// of 64 in descending order, its worst; a longer one — values a few ulps
// apart, or one outlier stretching the key range — is sorted by
// slices.Sort first, which keeps the whole O(n log n).
const (
	sortRunMin          = 12
	sortBucketInsertion = 64
)

// sortRun sorts run ascending and returns it with the buffer left over,
// for the next interval's samples. The result is element for element what
// slices.Sort(run) leaves, which remains the general case: a short run, or
// one holding anything the queueing model cannot produce (a NaN, ±Inf, −0,
// a negative), is sorted by it in place and lend is what is left over.
//
// Sojourns are finite and ≥ +0, and the bit patterns of such floats order
// as the values do, equal values having equal patterns, so any correct
// sort leaves the same slice. This one is a distribution sort in O(n):
// the key (bits − min) >> shift, with shift chosen so the keys span the
// power of two ≥ n, is piecewise-linear in the logarithm of the value,
// which spreads log-normal sojourns about one to a bucket; count, scatter
// into lend (grown when it is short), then one insertion pass.
func (s *Instance) sortRun(run, lend []float64) (sorted, spare []float64) {
	n := len(run)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, v := range run {
		b := math.Float64bits(v)
		lo, hi = min(lo, b), max(hi, b)
	}
	if n < sortRunMin || hi >= math.Float64bits(math.Inf(1)) {
		slices.Sort(run)
		return run, lend
	}
	width := bits.Len(uint(n - 1)) // 1<<width buckets: the power of two ≥ n
	shift := max(0, bits.Len64(hi-lo)-width)
	if cap(s.counts) < 1<<width {
		s.counts = make([]int32, 1<<width)
	}
	counts := s.counts[:1<<width]
	clear(counts)
	for _, v := range run {
		counts[(math.Float64bits(v)-lo)>>shift]++
	}
	var next int32
	crowded := false
	for k, c := range counts {
		counts[k] = next
		next += c
		crowded = crowded || c > sortBucketInsertion
	}
	sorted = slices.Grow(lend[:0], n)[:n]
	for _, v := range run {
		k := (math.Float64bits(v) - lo) >> shift
		sorted[counts[k]] = v
		counts[k]++
	}
	// counts[k] is now where bucket k ends. Buckets are in order, so an
	// insertion pass moves no element out of its own; the crowded ones are
	// sorted first so that it has nothing to do there.
	if crowded {
		begin := int32(0)
		for _, end := range counts {
			if end-begin > sortBucketInsertion {
				slices.Sort(sorted[begin:end])
			}
			begin = end
		}
	}
	for i := 1; i < n; i++ {
		v, j := sorted[i], i
		for ; j > 0 && sorted[j-1] > v; j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = v
	}
	return sorted, run
}

// windowTail returns the 0.99 and 0.95 quantiles of the union of the
// window's runs (ok is false when it holds no sample), linearly
// interpolated between the order statistics at ⌊q·(N−1)⌋ and the next
// one. Every run is sorted, so those order statistics are reached by
// walking down from the largest elements of the runs — the values a sort
// of the concatenation would put at those ranks, in O(0.05·N). The walk
// orders floats as slices.Sort does (cmp.Less: NaN below every number).
func (s *Instance) windowTail() (p99, p95 float64, ok bool) {
	var left [LatencyWindowIntervals]int // unconsumed prefix of each run
	n := 0
	for i, w := range s.window {
		left[i] = len(w)
		n += len(w)
	}
	if n == 0 {
		return 0, 0, false
	}
	rank99 := 0.99 * float64(n-1)
	rank95 := 0.95 * float64(n-1)
	lo99, lo95 := int(rank99), int(rank95)
	// With sorted the sorted union: at is sorted[lo], above sorted[lo+1].
	var at99, above99, at95, above95 float64
	for rank := n - 1; rank >= lo95; rank-- {
		top := -1
		for i, w := range s.window {
			if left[i] > 0 && (top < 0 || cmp.Less(s.window[top][left[top]-1], w[left[i]-1])) {
				top = i
			}
		}
		left[top]--
		v := s.window[top][left[top]]
		switch rank {
		case lo99 + 1:
			above99 = v
		case lo99:
			at99 = v
		}
		switch rank {
		case lo95 + 1:
			above95 = v
		case lo95:
			at95 = v
		}
	}
	return interpolate(at99, above99, rank99-float64(lo99), lo99+1 >= n),
		interpolate(at95, above95, rank95-float64(lo95), lo95+1 >= n), true
}

// interpolate blends the order statistic at a quantile's integer rank
// with the next one; last says the rank is the largest sample's.
func interpolate(at, above, frac float64, last bool) float64 {
	if last {
		return at
	}
	return at*(1-frac) + above*frac
}

// ResetWindow clears the trailing latency window (used with ResetQueue).
func (s *Instance) ResetWindow() { s.window = s.window[:0] }

func (s *Instance) capBacklog(st *IntervalStats) {
	if len(s.pending) > s.maxBacklog {
		st.Dropped = len(s.pending) - s.maxBacklog
		s.pending = s.pending[:copy(s.pending, s.pending[st.Dropped:])]
	}
}

// EncodeState writes the instance's mutable runtime state: clock,
// in-flight queue, trailing latency window and RNG position. Static
// calibration (meanWork, lnMu, maxBacklog) is re-derived from the
// profile at construction; the profile name goes in as a fingerprint so
// a checkpoint cannot restore into the wrong service.
func (s *Instance) EncodeState(e *checkpoint.Encoder) {
	e.String(s.Profile.Name)
	e.F64(s.now)
	e.Int(len(s.pending))
	for _, r := range s.pending {
		e.F64(r.Arrival)
		e.F64(r.Work)
	}
	e.Int(len(s.window))
	for _, w := range s.window {
		e.F64s(w)
	}
	s.rng.Source().EncodeState(e)
}

// errWindowRunUnsorted is returned by DecodeState for a latency-window
// run that is not ascending. RunInterval stores every run sorted and reads
// percentiles off the runs' tails, so such a payload was not written by
// EncodeState.
var errWindowRunUnsorted = errors.New("latency-window run is not sorted ascending")

// DecodeState restores state written by EncodeState into an instance
// built from the same profile.
func (s *Instance) DecodeState(d *checkpoint.Decoder) error {
	name := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	if name != s.Profile.Name {
		return fmt.Errorf("service: checkpoint is for %q, this instance runs %q", name, s.Profile.Name)
	}
	s.now = d.F64()
	s.pending = s.pending[:0]
	for range d.Count(16) { // arrival and work
		s.pending = append(s.pending, Request{Arrival: d.F64(), Work: d.F64()})
	}
	m := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if m < 0 || m > LatencyWindowIntervals {
		return fmt.Errorf("service: latency window of %d intervals exceeds maximum %d", m, LatencyWindowIntervals)
	}
	s.window = s.window[:0]
	for i := 0; i < m; i++ {
		run := d.F64s()
		if !slices.IsSorted(run) {
			return fmt.Errorf("service: %w: run %d of %d", errWindowRunUnsorted, i, m)
		}
		s.window = append(s.window, run)
	}
	return s.rng.Source().DecodeState(d)
}
