package main

import "time"

// The sandbox this benchmark runs in is a shared virtual machine whose
// speed drifts by tens of percent over minutes: the same binary on the
// same inputs reads 12 ms and 16 ms per interval a few runs apart. A
// bound of 10% means nothing against that. So alongside the workload,
// on the same goroutine and between its intervals, the recorder times a
// small fixed kernel of the benchmark's own; the ratio of its median to
// refNominalNs is how much slower than nominal the host's core ran
// during this phase, and the end-to-end timings are divided by it. The
// raw timings are reported beside them (record.Raw), so the division
// can be undone and audited.
//
// The kernel is scalar and register-resident. It follows what slows a
// core down as a whole (frequency, a busy sibling thread, stolen time)
// and cancels it. It does not follow the memory system, so a phase
// bound by cache misses is corrected too little when a neighbour
// competes for memory and too much when only the core is slow; and a
// change that lowers the core's clock for everything on it (wide
// vectors under -fast) slows the kernel too and hides part of its own
// cost. The measured spreads in README.md are what is left.

const (
	// refNominalNs is the kernel's duration on the host the benchmark was
	// written on (2-vCPU KVM guest, Xeon @ 2.1 GHz) in its fast state. It
	// only sets the unit — normalised timings read as on that host in
	// that state — and cancels in every ratio of two of them.
	refNominalNs = 100_000
	// refEveryNs spaces the reference samples over the timed phase.
	refEveryNs = 10_000_000
)

// refKernel is a fixed amount of scalar work: a xorshift stream turned
// into floats and summed along branches that stream decides, so no
// predictor learns them, whether the kernel runs once every 10 ms or
// fifty times in a row. It touches no memory: it reads the core's
// effective speed and nothing else. It returns the stream's next state
// and the sum, which the caller keeps so the work is not optimised away.
func refKernel(x uint64) (uint64, float64) {
	s := 0.0
	for i := 0; i < 12_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(x>>11) * (1.0 / (1 << 53))
		if v > 0.5 {
			s += v * 1.0001
		} else {
			s -= v * 0.9999
		}
	}
	return x, s
}

// hostRef collects reference samples.
type hostRef struct {
	samples []int64
	lastAt  time.Time
	spentNs int64
	state   uint64 // the kernel's stream
	sink    float64
}

// sample times the kernel once.
func (h *hostRef) sample() {
	if h.state == 0 {
		h.state = 88172645463325252 // xorshift must not start from zero
	}
	t0 := time.Now()
	h.state, h.sink = refKernel(h.state)
	d := time.Since(t0).Nanoseconds()
	h.samples = append(h.samples, d)
	h.spentNs += d
	h.lastAt = t0
}

// due reports whether the next sample is due.
func (h *hostRef) due(now time.Time) bool { return now.Sub(h.lastAt) >= refEveryNs }

// slowdown is how much slower than nominal the host ran while the
// samples were taken: their median over refNominalNs.
func (h *hostRef) slowdown() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return percentile(h.samples, 0.5) / refNominalNs
}
