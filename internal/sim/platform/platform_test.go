package platform

import (
	"math"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// stepForFreq maps a frequency in GHz to the nearest DVFS action index,
// clamped to the default range: the grid ClampFreq must agree with.
func stepForFreq(ghz float64) int {
	return min(max(int(math.Round((ghz-MinFreqGHz)/FreqStepGHz)), 0), NumFreqSteps-1)
}

func TestFrequencies(t *testing.T) {
	fs := make([]float64, NumFreqSteps)
	for i := range fs {
		fs[i] = FreqForStep(i)
	}
	if len(fs) != 9 {
		t.Fatalf("expected 9 DVFS states, got %d", len(fs))
	}
	if fs[0] != 1.2 || fs[8] != 2.0 {
		t.Fatalf("range = [%v, %v]", fs[0], fs[8])
	}
	for i := 1; i < len(fs); i++ {
		if math.Abs(fs[i]-fs[i-1]-0.1) > 1e-9 {
			t.Fatalf("step between %v and %v", fs[i-1], fs[i])
		}
	}
}

func TestFreqStepRoundtrip(t *testing.T) {
	for step := 0; step < NumFreqSteps; step++ {
		if got := stepForFreq(FreqForStep(step)); got != step {
			t.Fatalf("stepForFreq(FreqForStep(%d)) = %d", step, got)
		}
	}
	if FreqForStep(-5) != MinFreqGHz || FreqForStep(99) != MaxFreqGHz {
		t.Fatal("FreqForStep must clamp")
	}
	if stepForFreq(0.1) != 0 || stepForFreq(9.9) != NumFreqSteps-1 {
		t.Fatal("stepForFreq must clamp")
	}
	if stepForFreq(1.44) != 2 { // nearest is 1.4
		t.Fatalf("stepForFreq(1.44) = %d", stepForFreq(1.44))
	}
}

func TestNewPlatformLayout(t *testing.T) {
	p := New(DefaultConfig())
	if p.NumCores() != 36 {
		t.Fatalf("NumCores = %d", p.NumCores())
	}
	s0 := p.SocketCores(0)
	s1 := p.SocketCores(1)
	if len(s0) != 18 || len(s1) != 18 {
		t.Fatalf("socket sizes %d/%d", len(s0), len(s1))
	}
	if p.Core(s1[0]).Socket != 1 {
		t.Fatal("socket attribution")
	}
	for _, c := range p.Cores() {
		if !c.Online || c.FreqGHz != MinFreqGHz {
			t.Fatal("cores must start online at min frequency")
		}
	}
}

func TestSetFreqSnapsToGrid(t *testing.T) {
	p := New(DefaultConfig())
	p.SetFreq(3, 1.57)
	if got := p.Core(3).FreqGHz; got != 1.6 {
		t.Fatalf("snapped freq = %v", got)
	}
	p.SetFreq(3, 5.0)
	if p.Core(3).FreqGHz != MaxFreqGHz {
		t.Fatal("freq must clamp to max")
	}
}

func TestAffinityAndSharing(t *testing.T) {
	p := New(DefaultConfig())
	if err := p.Assign(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(0, 4); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := p.Assign(1, 4); err != nil {
		t.Fatal(err)
	}
	if got := p.ShareOf(0, 4); got != 0.5 {
		t.Fatalf("ShareOf = %v", got)
	}
	if got := p.ShareOf(2, 4); got != 0 {
		t.Fatalf("unassigned ShareOf = %v", got)
	}
	if cores := p.AppendServiceCores(nil, 0); len(cores) != 1 || cores[0] != 4 {
		t.Fatalf("AppendServiceCores = %v", cores)
	}
	p.ClearAffinity()
	if len(p.AppendServiceCores(nil, 0)) != 0 {
		t.Fatal("ClearAffinity")
	}
}

func TestHotplug(t *testing.T) {
	p := New(DefaultConfig())
	if err := p.Assign(0, 7); err != nil {
		t.Fatal(err)
	}
	p.SetOnline(7, false)
	if len(p.AppendServiceCores(nil, 0)) != 0 {
		t.Fatal("offline core must drop owners")
	}
	if err := p.Assign(0, 7); err == nil {
		t.Fatal("assigning to offline core must fail")
	}
	if p.ShareOf(0, 7) != 0 {
		t.Fatal("offline share must be 0")
	}
	p.SetOnline(7, true)
	if err := p.Assign(0, 7); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := New(DefaultConfig())
	for _, f := range []func(){
		func() { p.Core(-1) },
		func() { p.Core(99) },
		func() { p.SocketCores(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Sockets: 0, CoresPerSocket: 4})
}

func TestFreqRangeDefaults(t *testing.T) {
	lo, hi := DefaultConfig().FreqRange()
	if lo != MinFreqGHz || hi != MaxFreqGHz {
		t.Fatalf("default range = [%v,%v]", lo, hi)
	}
	if int(math.Round((hi-lo)/FreqStepGHz))+1 != NumFreqSteps {
		t.Fatal("default step count")
	}
	edge := Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	lo, hi = edge.FreqRange()
	if lo != 1.2 || hi != 1.6 {
		t.Fatalf("edge range = [%v,%v]", lo, hi)
	}
	if n := int(math.Round((hi-lo)/FreqStepGHz)) + 1; n != 5 {
		t.Fatalf("edge steps = %d", n)
	}
}

// TestClampFreqMatchesLegacyGrid pins the bit-identity of the per-config
// clamp with the historical FreqForStep(stepForFreq(...)) path on the
// default platform, so existing trajectories and checkpoints replay
// unchanged.
func TestClampFreqMatchesLegacyGrid(t *testing.T) {
	cfg := DefaultConfig()
	for i := 0; i <= 1400; i++ {
		ghz := 0.9 + float64(i)*0.001
		want := FreqForStep(stepForFreq(ghz))
		if got := cfg.ClampFreq(ghz); got != want {
			t.Fatalf("ClampFreq(%v) = %v, legacy grid gives %v", ghz, got, want)
		}
	}
	if got := cfg.ClampFreq(math.NaN()); got != MinFreqGHz {
		t.Fatalf("ClampFreq(NaN) = %v", got)
	}
}

func TestHeterogeneousPlatform(t *testing.T) {
	cfg := Config{Sockets: 1, CoresPerSocket: 10, MinFreqGHz: 1.2, MaxFreqGHz: 1.6}
	p := New(cfg)
	if p.NumCores() != 10 {
		t.Fatalf("cores = %d", p.NumCores())
	}
	if f := p.Core(0).FreqGHz; f != 1.2 {
		t.Fatalf("initial freq = %v", f)
	}
	p.SetFreq(3, 2.0) // above this SKU's cap: governor clamps
	if f := p.Core(3).FreqGHz; f != 1.6 {
		t.Fatalf("clamped freq = %v", f)
	}
	p.SetFreq(3, 1.44) // snaps to the 0.1 grid
	if f := p.Core(3).FreqGHz; f != 1.4 {
		t.Fatalf("snapped freq = %v", f)
	}

	// A checkpoint cut on this SKU restores onto the same shape but
	// rejects frequencies outside its range.
	e := checkpoint.NewEncoder()
	p.EncodeState(e)
	q := New(cfg)
	if err := q.DecodeState(checkpoint.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.Core(3).FreqGHz != 1.4 {
		t.Fatal("restored freq")
	}
}

func TestInvalidFreqRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Sockets: 1, CoresPerSocket: 4, MinFreqGHz: 1.8, MaxFreqGHz: 1.2})
}
