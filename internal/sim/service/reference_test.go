package service

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// referenceRunInterval is RunInterval as it stood before the one-sort /
// tail-walk rewrite, body verbatim (receiver turned into a parameter, its
// capBacklog, quantileSorted and drawWork carried along, and the draws
// made by math/rand's rand.Rand methods rather than rng.Rand's copies).
// It allocates every buffer per interval, draws each request's work with
// math.Exp, sorts the concatenated window and then this interval's run a
// second time. It is the oracle RunInterval must match bit for bit.
func referenceRunInterval(s *Instance, rateRPS, capacity, inflation, dt float64) IntervalStats {
	if inflation < 1 {
		inflation = 1
	}
	start := s.now
	end := start + dt
	st := IntervalStats{CapacityGHz: capacity, InflationApplied: inflation}

	// Generate Poisson arrivals within [start, end).
	var arrivals []Request
	if rateRPS > 0 {
		t := start
		for {
			t += s.rng.Rand.ExpFloat64() / rateRPS
			if t >= end {
				break
			}
			arrivals = append(arrivals, Request{Arrival: t, Work: drawWork(s) * inflation})
		}
	}
	st.Arrivals = len(arrivals)

	// The backlog requests arrived earlier; process FIFO by arrival.
	queue := s.pending
	s.pending = nil

	var sojourns []float64
	free := start // when the fluid server is next free
	ai := 0
	pop := func() (Request, bool) {
		if len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			return r, true
		}
		if ai < len(arrivals) {
			r := arrivals[ai]
			ai++
			return r, true
		}
		return Request{}, false
	}

	if capacity <= 0 {
		// No capacity: everything queues.
		s.pending = append(queue, arrivals[ai:]...)
		st.QueueLen = len(s.pending)
		s.now = end
		if len(s.pending) > 0 {
			st.P99Ms = (end - s.pending[0].Arrival) * 1000
			st.MaxMs = st.P99Ms
			st.MeanMs = st.P99Ms
		}
		referenceCapBacklog(s, &st)
		return st
	}

	for {
		r, ok := pop()
		if !ok {
			break
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

	s.now = end
	st.QueueLen = len(s.pending)
	referenceCapBacklog(s, &st)

	// Push this interval's samples into the trailing window.
	s.window = append(s.window, sojourns)
	if len(s.window) > LatencyWindowIntervals {
		s.window = s.window[1:]
	}
	var windowed []float64
	for _, w := range s.window {
		windowed = append(windowed, w...)
	}

	if len(sojourns) > 0 {
		st.MaxMs = sojourns[len(sojourns)-1] * 1000 // sorted below first
	}
	if len(windowed) > 0 {
		sort.Float64s(windowed)
		st.P99Ms = quantileSorted(windowed, 0.99) * 1000
		st.P95Ms = quantileSorted(windowed, 0.95) * 1000
	}
	if len(sojourns) > 0 {
		sort.Float64s(sojourns)
		st.MaxMs = sojourns[len(sojourns)-1] * 1000
		var sum float64
		for _, v := range sojourns {
			sum += v
		}
		st.MeanMs = sum / float64(len(sojourns)) * 1000
	}
	if len(windowed) == 0 && len(s.pending) > 0 {
		// Nothing completed recently: report the age of the oldest
		// queued request as the latency proxy the log-file would show.
		age := (end - s.pending[0].Arrival) * 1000
		st.P99Ms, st.P95Ms, st.MeanMs, st.MaxMs = age, age, age, age
	}
	return st
}

// drawWork samples one request's work demand, as RunInterval once did
// per arrival: math/rand's own NormFloat64 on the instance's stream (the
// one rand.Rand runs behind rng.Rand's interface) and math.Exp.
func drawWork(s *Instance) float64 {
	return math.Exp(s.lnMu + s.Profile.WorkSigma*s.rng.Rand.NormFloat64())
}

func referenceCapBacklog(s *Instance, st *IntervalStats) {
	if len(s.pending) > s.maxBacklog {
		st.Dropped = len(s.pending) - s.maxBacklog
		s.pending = s.pending[st.Dropped:]
	}
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// refStep is one scripted or fuzzed interval. reset drops the queue and
// the window first, as a crash edge does.
type refStep struct {
	rate, capacity, inflation float64
	reset                     bool
}

func encodeInstance(s *Instance) []byte {
	e := checkpoint.NewEncoder()
	s.EncodeState(e)
	return e.Bytes()
}

// statBits flattens every IntervalStats field, floats as their bit
// patterns, so a NaN or a signed zero cannot hide a difference.
func statBits(s IntervalStats) [12]uint64 {
	return [12]uint64{
		uint64(s.Arrivals), uint64(s.Completed), uint64(s.QueueLen), uint64(s.Dropped),
		math.Float64bits(s.P99Ms), math.Float64bits(s.P95Ms), math.Float64bits(s.MeanMs), math.Float64bits(s.MaxMs),
		math.Float64bits(s.WorkDone), math.Float64bits(s.BusySeconds), math.Float64bits(s.CapacityGHz),
		math.Float64bits(s.InflationApplied),
	}
}

// runAgainstReference drives two instances from one seed — one through
// RunInterval, one through the oracle — and requires equal stats, queue
// length and encoded state after every interval. At step swapAt the
// RunInterval side is encoded and decoded into a fresh instance that
// carries on, so restored (exactly sized, nil-for-empty) buffers are
// covered too.
func runAgainstReference(t *testing.T, p Profile, seed int64, steps []refStep, swapAt int) {
	t.Helper()
	got := NewInstance(p, 18, seed)
	ref := NewInstance(p, 18, seed)
	for i, sp := range steps {
		if sp.reset {
			got.ResetQueue()
			got.ResetWindow()
			ref.ResetQueue()
			ref.ResetWindow()
		}
		if i == swapAt {
			fresh := NewInstance(p, 18, seed+99)
			if err := fresh.DecodeState(checkpoint.NewDecoder(encodeInstance(got))); err != nil {
				t.Fatalf("step %d: decode into a fresh instance: %v", i, err)
			}
			got = fresh
		}
		a := got.RunInterval(sp.rate, sp.capacity, sp.inflation, 1)
		b := referenceRunInterval(ref, sp.rate, sp.capacity, sp.inflation, 1)
		if statBits(a) != statBits(b) {
			t.Fatalf("step %d: stats\n%+v, reference\n%+v", i, a, b)
		}
		if got.QueueLen() != ref.QueueLen() {
			t.Fatalf("step %d: QueueLen = %d, reference %d", i, got.QueueLen(), ref.QueueLen())
		}
		if !bytes.Equal(encodeInstance(got), encodeInstance(ref)) {
			t.Fatalf("step %d: encoded state differs from the reference", i)
		}
	}
}

func TestRunIntervalMatchesReference(t *testing.T) {
	p := MustLookup("masstree")
	sh, fq := fullShares(18, 2.0)
	full := p.CapacityGHz(sh, fq)
	sh2, fq2 := fullShares(2, 1.2)
	small := p.CapacityGHz(sh2, fq2)
	// tiny completes no request within an interval: each needs longer
	// than a second of it.
	tiny := p.MeanWork(18) / 1e4

	rep := func(n int, s refStep) []refStep {
		out := make([]refStep, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	cases := map[string][]refStep{
		"steady": rep(8, refStep{rate: 1200, capacity: full, inflation: 1}),
		"rate zero": append(append(rep(3, refStep{rate: 1500, capacity: full, inflation: 1}),
			rep(4, refStep{rate: 0, capacity: full, inflation: 1})...),
			rep(3, refStep{rate: 900, capacity: full, inflation: 1})...),
		"capacity zero then recovery": append(append(rep(2, refStep{rate: 800, capacity: full, inflation: 1}),
			rep(4, refStep{rate: 800, capacity: 0, inflation: 1})...),
			rep(5, refStep{rate: 800, capacity: full, inflation: 1})...),
		"capacity zero from cold": append(rep(3, refStep{rate: 300, capacity: 0, inflation: 1}),
			rep(3, refStep{rate: 300, capacity: full, inflation: 1})...),
		"overload past the backlog cap": append(rep(6, refStep{rate: 2400, capacity: small, inflation: 1.3}),
			rep(4, refStep{rate: 600, capacity: full, inflation: 1})...),
		"no completions": append(append(rep(2, refStep{rate: 700, capacity: full, inflation: 1}),
			rep(4, refStep{rate: 50, capacity: tiny, inflation: 1})...),
			rep(3, refStep{rate: 700, capacity: full, inflation: 1})...),
		"reset mid-run": append(append(rep(4, refStep{rate: 2400, capacity: small, inflation: 1}),
			refStep{rate: 1000, capacity: full, inflation: 1, reset: true}),
			rep(4, refStep{rate: 1000, capacity: full, inflation: 1})...),
		"inflation below one and far above": {
			{rate: 1000, capacity: full, inflation: 0.2},
			{rate: 1000, capacity: full, inflation: 1},
			{rate: 1000, capacity: full, inflation: 40},
			{rate: 1000, capacity: full, inflation: 400},
			{rate: 1000, capacity: full, inflation: 0.99},
			{rate: 1000, capacity: full, inflation: 1.05},
		},
		"single samples": rep(8, refStep{rate: 1.5, capacity: full, inflation: 1}),
		// Completions per interval either side of sortRunMin, crossing it
		// upwards and downwards, so a counted run borrows a run slices.Sort
		// left and the other way round.
		"runs across the small-run threshold": {
			{rate: 4, capacity: full, inflation: 1},
			{rate: 40, capacity: full, inflation: 1},
			{rate: 9, capacity: full, inflation: 1},
			{rate: 14, capacity: full, inflation: 1},
			{rate: 11, capacity: full, inflation: 1},
			{rate: 300, capacity: full, inflation: 1},
			{rate: 2, capacity: full, inflation: 1},
			{rate: 13, capacity: full, inflation: 1},
			{rate: 12, capacity: full, inflation: 1},
			{rate: 60, capacity: full, inflation: 1},
		},
	}
	for name, steps := range cases {
		steps := steps
		t.Run(name, func(t *testing.T) {
			for _, swapAt := range []int{-1, 1, len(steps) / 2, len(steps) - 1} {
				runAgainstReference(t, p, 7, steps, swapAt)
			}
		})
	}

	// The longest runs any process sorts: memcached at its calibration
	// load, where the borrowed run and the count array grow past what the
	// interval before left them.
	t.Run("memcached scale", func(t *testing.T) {
		mc := MustLookup("memcached")
		fullMC := mc.CapacityGHz(sh, fq)
		steps := []refStep{
			{rate: 400, capacity: fullMC, inflation: 1},
			{rate: 31000, capacity: fullMC, inflation: 1},
			{rate: 32000, capacity: fullMC, inflation: 1.1},
			{rate: 9000, capacity: fullMC, inflation: 1},
			{rate: 31500, capacity: fullMC, inflation: 1},
		}
		probe := NewInstance(mc, 18, 7)
		probe.RunInterval(steps[0].rate, fullMC, 1, 1)
		if st := probe.RunInterval(steps[1].rate, fullMC, 1, 1); st.Completed < 30000 {
			t.Fatalf("%d completions in the second interval, want ≥ 30000", st.Completed)
		}
		for _, swapAt := range []int{-1, 2, 4} {
			runAgainstReference(t, mc, 7, steps, swapAt)
		}
	})
}

func FuzzRunIntervalMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3))
	f.Add(int64(42), uint8(30), uint8(0))
	f.Add(int64(-7), uint8(5), uint8(200))
	names := TailbenchNames()
	f.Fuzz(func(t *testing.T, seed int64, n, swap uint8) {
		r := rand.New(rand.NewSource(seed))
		p := MustLookup(names[r.Intn(len(names))])
		sh, fq := fullShares(18, 2.0)
		full := p.CapacityGHz(sh, fq)
		steps := make([]refStep, 1+int(n)%40)
		for i := range steps {
			s := refStep{
				rate:      p.MaxLoadRPS * 1.2 * r.Float64(),
				capacity:  full * r.Float64(),
				inflation: 1 + r.ExpFloat64()/4,
			}
			switch r.Intn(12) {
			case 0:
				s.rate = 0
			case 1:
				s.capacity = 0
			case 2:
				s.capacity = full * 1e-5 * r.Float64()
			case 3:
				s.inflation = 3 * r.Float64()
			case 4:
				s.reset = true
			case 5:
				s.rate = 3 * r.Float64()
			}
			steps[i] = s
		}
		runAgainstReference(t, p, seed, steps, int(swap)%(len(steps)+1)-1)
	})
}
