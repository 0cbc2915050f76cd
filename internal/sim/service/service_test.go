package service

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func fullShares(n int, freq float64) (shares, freqs []float64) {
	shares = make([]float64, n)
	freqs = make([]float64, n)
	for i := range shares {
		shares[i] = 1
		freqs[i] = freq
	}
	return
}

func TestProfilesLookup(t *testing.T) {
	for _, name := range TailbenchNames() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.MaxLoadRPS <= 0 {
			t.Fatalf("profile %q = %+v", name, p)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if len(Names()) < 6 {
		t.Fatalf("Names = %v", Names())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup should panic")
		}
	}()
	MustLookup("nope")
}

func TestTableIIMaxLoads(t *testing.T) {
	want := map[string]float64{"masstree": 2400, "xapian": 1000, "moses": 2800, "img-dnn": 1100}
	for name, rps := range want {
		if p := MustLookup(name); p.MaxLoadRPS != rps {
			t.Fatalf("%s MaxLoadRPS = %v, want %v (Table II)", name, p.MaxLoadRPS, rps)
		}
	}
}

func TestMeanWorkCalibration(t *testing.T) {
	p := MustLookup("masstree")
	// At max load on 18 reference-frequency cores, utilisation = RhoMax.
	mw := p.MeanWork(18)
	util := p.MaxLoadRPS * mw / (18 * ReferenceFreqGHz)
	if math.Abs(util-p.RhoMax) > 1e-9 {
		t.Fatalf("utilisation = %v, want %v", util, p.RhoMax)
	}
}

func TestCapacityMonotonicity(t *testing.T) {
	p := MustLookup("xapian")
	sh4, fq4 := fullShares(4, 2.0)
	sh8, fq8 := fullShares(8, 2.0)
	if p.CapacityGHz(sh8, fq8) <= p.CapacityGHz(sh4, fq4) {
		t.Fatal("more cores must give more capacity")
	}
	shLo, fqLo := fullShares(4, 1.2)
	if p.CapacityGHz(sh4, fq4) <= p.CapacityGHz(shLo, fqLo) {
		t.Fatal("higher frequency must give more capacity")
	}
}

func TestCapacityFrequencySensitivity(t *testing.T) {
	compute := Profile{FreqSensitivity: 1}
	memory := Profile{FreqSensitivity: 0.2}
	sh, fLo := fullShares(1, 1.2)
	_, fHi := fullShares(1, 2.0)
	gainCompute := compute.CapacityGHz(sh, fHi) / compute.CapacityGHz(sh, fLo)
	gainMemory := memory.CapacityGHz(sh, fHi) / memory.CapacityGHz(sh, fLo)
	if gainCompute <= gainMemory {
		t.Fatalf("compute-bound gain %v must exceed memory-bound gain %v", gainCompute, gainMemory)
	}
	if math.Abs(gainCompute-2.0/1.2) > 1e-9 {
		t.Fatalf("fully compute-bound gain = %v", gainCompute)
	}
}

func TestAmdahlPenalty(t *testing.T) {
	serial := Profile{FreqSensitivity: 1, SerialFraction: 0.05}
	ideal := Profile{FreqSensitivity: 1}
	sh, fq := fullShares(18, 2.0)
	if serial.CapacityGHz(sh, fq) >= ideal.CapacityGHz(sh, fq) {
		t.Fatal("serial fraction must reduce capacity")
	}
	sh1, fq1 := fullShares(1, 2.0)
	if math.Abs(serial.CapacityGHz(sh1, fq1)-ideal.CapacityGHz(sh1, fq1)) > 1e-9 {
		t.Fatal("single core must be unaffected by serial fraction")
	}
}

func TestRunIntervalLowLoadLatency(t *testing.T) {
	p := MustLookup("masstree")
	inst := NewInstance(p, 18, 1)
	sh, fq := fullShares(18, 2.0)
	capGHz := p.CapacityGHz(sh, fq)
	var p99s []float64
	for i := 0; i < 30; i++ {
		st := inst.RunInterval(0.2*p.MaxLoadRPS, capGHz, 1, 1)
		if i >= 10 {
			p99s = append(p99s, st.P99Ms)
		}
	}
	m := mean(p99s)
	if m <= 0 || m > 3 {
		t.Fatalf("low-load p99 = %v ms, want small positive", m)
	}
}

// TestRunIntervalAllocsWarm: once the buffers have seen the load's peak, an
// interval allocates nothing — the arrivals, both queue buffers, the three
// sojourn buffers that circulate through the window and the sort, and the
// sort's count array are all reused. The load swings ±30 %, so a run is
// often longer than the expiring one it is scattered into: that buffer is
// grown once, when first too short, not every time.
func TestRunIntervalAllocsWarm(t *testing.T) {
	p := MustLookup("masstree")
	inst := NewInstance(p, 18, 1)
	sh, fq := fullShares(18, 2.0)
	capGHz := p.CapacityGHz(sh, fq)
	i := 0
	interval := func() {
		load := 0.6 * (1 + 0.3*math.Sin(float64(i)/5))
		inst.RunInterval(load*p.MaxLoadRPS, capGHz, 1.05, 1)
		i++
	}
	for i < 100 {
		interval()
	}
	if n := testing.AllocsPerRun(200, interval); n != 0 {
		t.Fatalf("a warm interval makes %v allocations, want 0", n)
	}
}

// TestFreshInstanceAllocsOnlyItsBuffers pins what a newly built Instance
// allocates at a steady 60 % load: its first interval grows the arrival
// instants, their work and the first sojourn run (43 allocations); the
// next three add the window's other runs, the run the sort leaves over
// and the window's slice (4); from the fifth interval on, nothing. A
// fleet builds servers on every restore, so a buffer added to the
// arrival pass shows here as more allocations in the first interval.
func TestFreshInstanceAllocsOnlyItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts")
	}
	p := MustLookup("masstree")
	sh, fq := fullShares(18, 2.0)
	capGHz := p.CapacityGHz(sh, fq)
	inst := NewInstance(p, 18, 1)
	var allocs [8]uint64
	var ms runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		inst.RunInterval(0.6*p.MaxLoadRPS, capGHz, 1.05, 1)
		runtime.ReadMemStats(&ms)
		allocs[i] = ms.Mallocs - before
	}
	first, filling := allocs[0], allocs[1]+allocs[2]+allocs[3]
	if first > 43 || filling > 4 {
		t.Errorf("allocations per interval %v: %d in the first interval (want ≤ 43), %d in the next three (want ≤ 4)", allocs, first, filling)
	}
	for i, n := range allocs[4:] {
		if n != 0 {
			t.Errorf("interval %d allocates %d times, want 0 (all: %v)", i+5, n, allocs)
		}
	}
}

func TestRunIntervalOverloadGrows(t *testing.T) {
	p := MustLookup("masstree")
	inst := NewInstance(p, 18, 1)
	sh, fq := fullShares(4, 2.0) // far below the 50% load requirement
	capGHz := p.CapacityGHz(sh, fq)
	// With the bounded backlog, overload saturates within a couple of
	// intervals: latency jumps far past any sane target and a backlog
	// persists until capacity returns.
	var prev float64
	for i := 0; i < 10; i++ {
		st := inst.RunInterval(0.5*p.MaxLoadRPS, capGHz, 1, 1)
		prev = st.P99Ms
		if i >= 2 && prev < 50 {
			t.Fatalf("interval %d: overload p99 = %v ms, expected saturation", i, prev)
		}
		if i == 9 && st.QueueLen == 0 {
			t.Fatal("overload must leave a backlog")
		}
	}
	if prev < 100 {
		t.Fatalf("overload p99 = %v ms, expected saturation-level latency", prev)
	}
}

func TestRunIntervalInflationHurts(t *testing.T) {
	p := MustLookup("masstree")
	sh, fq := fullShares(10, 2.0)
	capGHz := p.CapacityGHz(sh, fq)
	clean := NewInstance(p, 18, 7)
	dirty := NewInstance(p, 18, 7)
	var cl, dl []float64
	for i := 0; i < 40; i++ {
		c := clean.RunInterval(0.4*p.MaxLoadRPS, capGHz, 1, 1)
		d := dirty.RunInterval(0.4*p.MaxLoadRPS, capGHz, 1.4, 1)
		if i >= 10 {
			cl = append(cl, c.P99Ms)
			dl = append(dl, d.P99Ms)
		}
	}
	if mean(dl) <= mean(cl) {
		t.Fatalf("interference inflation must raise latency: %v vs %v", mean(dl), mean(cl))
	}
}

func TestRunIntervalZeroCapacityQueuesEverything(t *testing.T) {
	p := MustLookup("xapian")
	inst := NewInstance(p, 18, 2)
	st := inst.RunInterval(100, 0, 1, 1)
	if st.Completed != 0 {
		t.Fatal("no capacity yet requests completed")
	}
	if st.QueueLen != st.Arrivals {
		t.Fatalf("queue %d != arrivals %d", st.QueueLen, st.Arrivals)
	}
	if st.P99Ms <= 0 {
		t.Fatal("latency proxy must be positive while queueing")
	}
	// Capacity restored: the backlog drains.
	sh, fq := fullShares(18, 2.0)
	st2 := inst.RunInterval(0, p.CapacityGHz(sh, fq), 1, 1)
	if st2.Completed == 0 || inst.QueueLen() != 0 {
		t.Fatalf("backlog should drain: completed=%d queue=%d", st2.Completed, inst.QueueLen())
	}
}

func TestWorkConservation(t *testing.T) {
	// Work in = work done + work still queued (within FP tolerance),
	// checked over a run that includes overload and recovery.
	p := MustLookup("moses")
	inst := NewInstance(p, 18, 3)
	sh, fq := fullShares(6, 1.6)
	lowCap := p.CapacityGHz(sh, fq)
	shF, fqF := fullShares(18, 2.0)
	fullCap := p.CapacityGHz(shF, fqF)

	var done float64
	for i := 0; i < 10; i++ {
		st := inst.RunInterval(0.9*p.MaxLoadRPS, lowCap, 1, 1)
		done += st.WorkDone
		if st.BusySeconds > 1+1e-9 {
			t.Fatalf("busy %v > interval", st.BusySeconds)
		}
	}
	for i := 0; i < 40 && inst.QueueLen() > 0; i++ {
		st := inst.RunInterval(0, fullCap, 1, 1)
		done += st.WorkDone
	}
	if inst.QueueLen() != 0 {
		t.Fatal("queue did not drain")
	}
	if done <= 0 {
		t.Fatal("no work processed")
	}
}

// Property: completed + queued == arrivals over any single interval
// starting from an empty queue.
func TestArrivalAccounting(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}
	p := MustLookup("img-dnn")
	f := func(seed int64) bool {
		inst := NewInstance(p, 18, seed)
		capGHz := 5 + float64(seed%20)
		st := inst.RunInterval(500, capGHz, 1, 1)
		return st.Completed+st.QueueLen == st.Arrivals
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDrawWorkDistribution(t *testing.T) {
	p := MustLookup("masstree")
	inst := NewInstance(p, 18, 11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		w := drawWork(inst)
		if w <= 0 {
			t.Fatal("work must be positive")
		}
		sum += w
	}
	got := sum / n
	if math.Abs(got-inst.MeanWork())/inst.MeanWork() > 0.05 {
		t.Fatalf("empirical mean work %v vs calibrated %v", got, inst.MeanWork())
	}
}

func TestBadProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInstance(Profile{Name: "x"}, 18, 1)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkRunInterval is one warm masstree interval at about 1 500
// arrivals a second on a full socket: the arrival pass, the FIFO walk and
// the sort.
func BenchmarkRunInterval(b *testing.B) {
	p := MustLookup("masstree")
	inst := NewInstance(p, 18, 1)
	sh, fq := fullShares(18, 2.0)
	capGHz := p.CapacityGHz(sh, fq)
	rate := 1500.0
	for i := 0; i < 10; i++ {
		inst.RunInterval(rate, capGHz, 1.05, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.RunInterval(rate, capGHz, 1.05, 1)
	}
}
