package sim

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
	"github.com/twig-sched/twig/internal/sim/service"
)

func newTestServer(names ...string) *Server {
	return NewServer(DefaultConfig(), specsFor(names...))
}

func specsFor(names ...string) []ServiceSpec {
	specs := make([]ServiceSpec, len(names))
	for i, n := range names {
		specs[i] = ServiceSpec{Profile: service.MustLookup(n), QoSTargetMs: 5, Seed: int64(i + 1)}
	}
	return specs
}

func fullAlloc(s *Server) Assignment {
	return Assignment{
		PerService:  []Allocation{{Cores: s.ManagedCores(), FreqGHz: platform.MaxFreqGHz}},
		IdleFreqGHz: platform.MinFreqGHz,
	}
}

func TestServerBasics(t *testing.T) {
	s := newTestServer("masstree")
	if s.NumServices() != 1 {
		t.Fatal("NumServices")
	}
	if len(s.ManagedCores()) != 18 {
		t.Fatalf("managed cores = %d", len(s.ManagedCores()))
	}
	if s.Spec(0).Profile.Name != "masstree" {
		t.Fatal("Spec")
	}
	if s.MaxPowerW() <= s.IdlePowerW() {
		t.Fatal("power bounds")
	}
}

func TestStepAdvancesClockAndEnergy(t *testing.T) {
	s := newTestServer("masstree")
	asg := fullAlloc(s)
	r := s.MustStep(asg, []float64{1000})
	if r.Time != 0 || s.Clock() != 1 {
		t.Fatal("clock")
	}
	if r.TruePowerW <= 0 || r.EnergyJ != r.TruePowerW {
		t.Fatalf("power %v energy %v", r.TruePowerW, r.EnergyJ)
	}
	if math.Abs(s.EnergyJ()-r.EnergyJ) > 1e-9 {
		t.Fatal("cumulative energy")
	}
	if r.Services[0].NumCores != 18 || r.Services[0].FreqGHz != 2.0 {
		t.Fatalf("allocation echo %+v", r.Services[0])
	}
	if r.Services[0].QoSTargetMs != 5 || r.Services[0].OfferedRPS != 1000 {
		t.Fatal("spec echo")
	}
}

func TestStepArgumentValidation(t *testing.T) {
	s := newTestServer("masstree")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MustStep(Assignment{}, []float64{100})
}

func TestLatencyRespondsToAllocation(t *testing.T) {
	// Same load: a starved allocation must show higher latency than a
	// generous one.
	sBig := newTestServer("masstree")
	sSmall := newTestServer("masstree")
	load := []float64{0.5 * service.MustLookup("masstree").MaxLoadRPS}
	big := fullAlloc(sBig)
	small := Assignment{
		PerService:  []Allocation{{Cores: sSmall.ManagedCores()[:6], FreqGHz: 1.2}},
		IdleFreqGHz: platform.MinFreqGHz,
	}
	var lBig, lSmall float64
	for i := 0; i < 30; i++ {
		rb := sBig.MustStep(big, load)
		rs := sSmall.MustStep(small, load)
		if i >= 10 {
			lBig += rb.Services[0].P99Ms
			lSmall += rs.Services[0].P99Ms
		}
	}
	if lSmall <= lBig {
		t.Fatalf("starved allocation latency %v must exceed generous %v", lSmall, lBig)
	}
}

func TestPowerRespondsToIdleFrequency(t *testing.T) {
	// Unowned cores at low DVFS must consume less than at high DVFS.
	run := func(idle float64) float64 {
		s := newTestServer("masstree")
		asg := Assignment{
			PerService:  []Allocation{{Cores: s.ManagedCores()[:4], FreqGHz: 2.0}},
			IdleFreqGHz: idle,
		}
		var p float64
		for i := 0; i < 10; i++ {
			p += s.MustStep(asg, []float64{200}).TruePowerW
		}
		return p
	}
	if lo, hi := run(1.2), run(2.0); lo >= hi {
		t.Fatalf("idle@1.2 power %v must be below idle@2.0 %v", lo, hi)
	}
}

func TestColocationInterferenceVisible(t *testing.T) {
	// Masstree alone vs masstree next to a bandwidth-hungry Moses at
	// high load: the same masstree allocation must show higher latency.
	mass := service.MustLookup("masstree")
	moses := service.MustLookup("moses")

	solo := newTestServer("masstree")
	var soloLat float64
	for i := 0; i < 40; i++ {
		asg := Assignment{
			PerService:  []Allocation{{Cores: solo.ManagedCores()[:4], FreqGHz: 2.0}},
			IdleFreqGHz: platform.MinFreqGHz,
		}
		r := solo.MustStep(asg, []float64{0.3 * mass.MaxLoadRPS})
		if i >= 10 {
			soloLat += r.Services[0].P99Ms
		}
	}

	pair := newTestServer("masstree", "moses")
	cores := pair.ManagedCores()
	var pairLat float64
	for i := 0; i < 40; i++ {
		asg := Assignment{
			PerService: []Allocation{
				{Cores: cores[:4], FreqGHz: 2.0},
				{Cores: cores[4:], FreqGHz: 2.0},
			},
			IdleFreqGHz: platform.MinFreqGHz,
		}
		r := pair.MustStep(asg, []float64{0.3 * mass.MaxLoadRPS, 0.9 * moses.MaxLoadRPS})
		if i >= 10 {
			pairLat += r.Services[0].P99Ms
			if r.Services[0].InflationApplied <= 1 {
				t.Fatal("colocated masstree should see interference inflation")
			}
		}
	}
	if pairLat <= soloLat {
		t.Fatalf("colocated latency %v must exceed solo %v", pairLat, soloLat)
	}
}

func TestTimeSharedCores(t *testing.T) {
	// Two services overlapping on all cores: each gets half the
	// capacity, so a load that is fine solo becomes overloaded shared.
	s := newTestServer("masstree", "masstree")
	cores := s.ManagedCores()
	asg := Assignment{
		PerService: []Allocation{
			{Cores: cores, FreqGHz: 2.0},
			{Cores: cores, FreqGHz: 2.0},
		},
	}
	mass := service.MustLookup("masstree")
	r := s.MustStep(asg, []float64{0.5 * mass.MaxLoadRPS, 0.5 * mass.MaxLoadRPS})
	// Each service sees 18 shared cores at 50% share ≈ 9 effective.
	if r.Services[0].CapacityGHz >= 0.7*mass.CapacityGHz(ones(18), twos(18)) {
		t.Fatalf("shared capacity %v should be roughly half of exclusive", r.Services[0].CapacityGHz)
	}
}

func TestPMCsPopulatedAndNormalised(t *testing.T) {
	s := newTestServer("xapian")
	asg := fullAlloc(s)
	var r StepResult
	for i := 0; i < 5; i++ {
		r = s.MustStep(asg, []float64{500})
	}
	sv := r.Services[0]
	if sv.PMCs[pmc.InstructionRetired] <= 0 || sv.PMCs[pmc.UnhaltedCoreCycles] <= 0 {
		t.Fatalf("PMCs not populated: %v", sv.PMCs)
	}
	for i, v := range sv.NormPMCs {
		if v < 0 || v > 1 {
			t.Fatalf("normalised counter %d = %v out of [0,1]", i, v)
		}
	}
	// Counters must scale with load.
	sHi := newTestServer("xapian")
	var rHi StepResult
	for i := 0; i < 5; i++ {
		rHi = sHi.MustStep(fullAlloc(sHi), []float64{900})
	}
	if rHi.Services[0].PMCs[pmc.InstructionRetired] <= sv.PMCs[pmc.InstructionRetired] {
		t.Fatal("instructions must grow with load")
	}
}

func TestCalibrateQoSTarget(t *testing.T) {
	cfg := DefaultConfig()
	p := service.MustLookup("masstree")
	q := CalibrateQoSTarget(p, cfg, 60, 1)
	if q <= 0 || q > 100 {
		t.Fatalf("calibrated QoS target = %v ms", q)
	}
	// Reproducible.
	q2 := CalibrateQoSTarget(p, cfg, 60, 1)
	if q != q2 {
		t.Fatalf("calibration not deterministic: %v vs %v", q, q2)
	}
}

func TestQoSTargetOrderingMatchesPaper(t *testing.T) {
	// Table II orders targets masstree < xapian < img-dnn < moses; the
	// simulated platform must reproduce that ordering.
	cfg := DefaultConfig()
	get := func(name string) float64 {
		return CalibrateQoSTarget(service.MustLookup(name), cfg, 90, 2)
	}
	mass, xap, img, mos := get("masstree"), get("xapian"), get("img-dnn"), get("moses")
	if !(mass < xap && xap < img && img < mos) {
		t.Fatalf("QoS ordering violated: masstree=%v xapian=%v img-dnn=%v moses=%v",
			mass, xap, img, mos)
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func twos(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2
	}
	return v
}

func TestLatencyTax(t *testing.T) {
	build := func(tax float64) *Server {
		cfg := DefaultConfig()
		cfg.LatencyTaxMs = tax
		return NewServer(cfg, []ServiceSpec{{Profile: service.MustLookup("xapian"), QoSTargetMs: 20, Seed: 1}})
	}
	plain, taxed := build(0), build(4.5)
	for step := 0; step < 5; step++ {
		a := plain.MustStep(fullAlloc(plain), []float64{500}).Services[0]
		b := taxed.MustStep(fullAlloc(taxed), []float64{500}).Services[0]
		for _, pair := range [][2]float64{
			{a.P99Ms, b.P99Ms}, {a.P95Ms, b.P95Ms}, {a.MeanMs, b.MeanMs}, {a.MaxMs, b.MaxMs},
		} {
			if got := pair[1] - pair[0]; math.Abs(got-4.5) > 1e-9 {
				t.Fatalf("step %d: tax shifted latency by %v, want 4.5", step, got)
			}
		}
		// Everything but the log lines is untouched by the tax.
		if a.PMCs != b.PMCs || a.OfferedRPS != b.OfferedRPS {
			t.Fatal("tax must only touch reported latencies")
		}
	}
}

func TestLatencyTaxValidation(t *testing.T) {
	for _, tax := range []float64{math.NaN(), math.Inf(1), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("tax %v must panic", tax)
				}
			}()
			cfg := DefaultConfig()
			cfg.LatencyTaxMs = tax
			NewServer(cfg, nil)
		}()
	}
}

// TestHeterogeneousServer runs a 1-socket edge SKU with a capped DVFS
// range end to end: managed cores come from socket 0, the reward
// normalisers use the SKU's own ceiling, and steps run clean.
func TestHeterogeneousServer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Platform = platform.Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	cfg.ManagedSocket = 0
	srv := NewServer(cfg, []ServiceSpec{{Profile: service.MustLookup("masstree"), QoSTargetMs: 8, Seed: 3}})
	if len(srv.ManagedCores()) != 10 {
		t.Fatalf("managed cores = %d", len(srv.ManagedCores()))
	}
	if lo, hi := srv.FreqRange(); lo != 1.2 || hi != 1.6 {
		t.Fatalf("freq range [%v,%v]", lo, hi)
	}
	big := NewServer(DefaultConfig(), []ServiceSpec{{Profile: service.MustLookup("masstree"), QoSTargetMs: 8, Seed: 3}})
	if srv.MaxPowerW() >= big.MaxPowerW() {
		t.Fatal("edge SKU must have a lower power ceiling than the paper node")
	}
	asg := Assignment{
		PerService:  []Allocation{{Cores: srv.ManagedCores(), FreqGHz: 2.0}}, // clamped to 1.6
		IdleFreqGHz: 1.2,
	}
	r := srv.MustStep(asg, []float64{800})
	if got := r.Services[0].FreqGHz; math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("applied freq = %v, want the SKU cap 1.6", got)
	}
}
