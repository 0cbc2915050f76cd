package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/twig-sched/twig/internal/par"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/stats"
)

// PowerModel is the first-order per-service power model of Eq. 2:
//
//	Power = κ·load + σ·numCores + ω²·DVFS
//
// fitted on dynamic power (measured minus idle). It exists because RAPL
// only reports socket-level power while each agent needs the power
// consumed by its own allocation for the reward.
//
// Offset extends Eq. 2 with a fitted baseline constant: on this
// simulated platform the "dynamic power" of a configuration with most
// cores hot-unplugged falls below the global idle baseline, so a
// through-the-origin fit (the paper's literal form) collapses the DVFS
// coefficient. The offset restores the κ/σ/ω² semantics; see DESIGN.md.
type PowerModel struct {
	Kappa  float64 // load coefficient (load as fraction of max)
	Sigma  float64 // per-core coefficient
	Omega  float64 // DVFS coefficient (applied as Omega², so ≥ 0 effect)
	Offset float64 // fitted baseline constant (see above)
	// IdleW is the idle power baseline subtracted during fitting.
	IdleW float64
	// MSE and R2 are the fit quality on the training data.
	MSE float64
	R2  float64
}

// Estimate returns the estimated dynamic power of a service at the given
// load fraction, core count and DVFS setting.
func (m *PowerModel) Estimate(loadFrac float64, cores int, freqGHz float64) float64 {
	p := m.Kappa*loadFrac + m.Sigma*float64(cores) + m.Omega*m.Omega*freqGHz + m.Offset
	if p < 0 {
		p = 0
	}
	return p
}

// PowerSample is one profiling measurement.
type PowerSample struct {
	// LoadFrac is the load the service actually processed, as a
	// fraction of its maximum (saturated grid points process less than
	// offered). OfferedFrac is the grid label (0.2/0.5/0.8).
	LoadFrac    float64
	OfferedFrac float64
	Cores       int
	FreqGHz     float64
	// DynamicW is measured socket power minus idle power.
	DynamicW float64
}

// FitPowerModel fits Eq. 2 to profiling samples using the paper's
// methodology: random grid search over the regularisation strength with
// 5-fold cross-validation, then a refit on all data.
func FitPowerModel(samples []PowerSample, idleW float64, rng *rand.Rand) (*PowerModel, error) {
	if len(samples) < 10 {
		return nil, fmt.Errorf("core: %d power samples, need ≥ 10", len(samples))
	}
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i] = []float64{s.LoadFrac, float64(s.Cores), s.FreqGHz}
		y[i] = s.DynamicW
	}
	model, _, err := stats.RandomSearchRidge(X, y, 1e-6, 10, 12, 5, rng)
	if err != nil {
		return nil, err
	}
	pred := make([]float64, len(X))
	for i := range X {
		pred[i] = model.Predict(X[i])
	}
	omega := 0.0
	if model.Coef[2] > 0 {
		omega = math.Sqrt(model.Coef[2])
	}
	return &PowerModel{
		Kappa:  model.Coef[0],
		Sigma:  model.Coef[1],
		Omega:  omega,
		Offset: model.Intercept,
		IdleW:  idleW,
		MSE:    stats.MSE(pred, y),
		R2:     stats.R2(pred, y),
	}, nil
}

// ProfilePower runs the paper's profiling campaign on a simulated server
// hosting a single service: three load levels (20%, 50%, 80% of max),
// alternate core counts and alternate DVFS states, measuring dynamic
// power each second with unused cores hot-unplugged. It returns the
// samples for FitPowerModel, in grid order. Every grid point runs on a
// server of its own, drawing from spec.Seed and cfg, so the points fan
// out over GOMAXPROCS workers and the samples are the same at any worker
// count.
func ProfilePower(spec sim.ServiceSpec, cfg sim.Config, secondsPerPoint int) []PowerSample {
	type point struct {
		lf          float64
		cores, step int
	}
	var grid []point
	for _, lf := range []float64{0.2, 0.5, 0.8} {
		for cores := 2; cores <= cfg.Platform.CoresPerSocket; cores += 2 { // alternate core counts
			for step := 0; step < platform.NumFreqSteps; step += 2 { // alternate DVFS states
				grid = append(grid, point{lf, cores, step})
			}
		}
	}
	// Global idle baseline, as in Sec. IV: the power of the idle system
	// (all cores online at the lowest DVFS state, nothing scheduled).
	idle := sim.NewServer(cfg, []sim.ServiceSpec{spec}).IdlePowerW()
	samples := make([]PowerSample, len(grid))
	par.For(len(grid), func(i int) {
		p := grid[i]
		samples[i] = profilePoint(spec, cfg, secondsPerPoint, p.lf, p.cores, platform.FreqForStep(p.step), idle)
	})
	return samples
}

// profilePoint measures one grid point on a fresh server: cores cores
// at freq, the rest hot-unplugged, offered lf of the service's maximum
// load, averaged over the last two thirds of secondsPerPoint.
func profilePoint(spec sim.ServiceSpec, cfg sim.Config, secondsPerPoint int, lf float64, cores int, freq, idle float64) PowerSample {
	srv := sim.NewServer(cfg, []sim.ServiceSpec{spec})
	ids := srv.ManagedCores()[:cores]
	// Hot-unplug the unused cores, as in Sec. IV.
	for _, id := range srv.ManagedCores()[cores:] {
		srv.Platform().SetOnline(id, false)
	}
	asg := sim.Assignment{PerService: []sim.Allocation{{Cores: ids, FreqGHz: freq}}}
	var pw, rps float64
	n := 0
	for t := 0; t < secondsPerPoint; t++ {
		r := srv.MustStep(asg, []float64{lf * spec.Profile.MaxLoadRPS})
		if t >= secondsPerPoint/3 {
			pw += r.PowerW
			rps += float64(r.Services[0].Completed)
			n++
		}
	}
	// Record the load the service actually processed: an
	// under-provisioned grid point saturates below the offered load and
	// its power reflects that throughput, which is what the profiler
	// observes.
	return PowerSample{
		LoadFrac:    rps / float64(n) / spec.Profile.MaxLoadRPS,
		OfferedFrac: lf,
		Cores:       cores,
		FreqGHz:     freq,
		DynamicW:    pw/float64(n) - idle,
	}
}
