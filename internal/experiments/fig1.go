package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/service"
	"github.com/twig-sched/twig/internal/stats"
)

// Fig1Result reproduces Fig. 1: the tail-latency prediction error of a
// learned estimator fed all Table-I PMCs versus one fed only IPC, for
// one service run at maximum cores and DVFS across varying load.
type Fig1Result struct {
	Service string
	Samples int

	MultiPMC Fig1Model
	IPCOnly  Fig1Model

	// ZeroErrorGain is P(error≈0 | multi-PMC) / P(error≈0 | IPC), the
	// paper's headline "probability of zero prediction error increases
	// by ≥1.91×".
	ZeroErrorGain float64
}

// Fig1Model summarises one estimator's held-out error distribution.
type Fig1Model struct {
	ErrMeanMs float64
	ErrStdMs  float64
	// PDF is an area-normalised histogram of errors (Fig. 1a/1c).
	PDF *stats.Histogram
	// Violins groups errors by measured tail latency (Fig. 1b/1d).
	Violins []stats.ViolinBucket
}

// Fig1 runs the experiment for one service ("memcached" or
// "web-search" in the paper). samples counts 1 s monitoring intervals
// (the paper uses 30 000).
func Fig1(svcName string, samples int, seed int64) Fig1Result {
	prof := service.MustLookup(svcName)
	cfg := sim.DefaultConfig()
	cfg.MeasurementSeed = seed
	srv := sim.NewServer(cfg, []sim.ServiceSpec{{Profile: prof, Seed: seed}})
	asg := sim.Assignment{
		PerService:  []sim.Allocation{{Cores: srv.ManagedCores(), FreqGHz: platform.MaxFreqGHz}},
		IdleFreqGHz: platform.MinFreqGHz,
	}

	rng := rand.New(rand.NewSource(seed))
	var feats [][]float64
	var ipcs []float64
	var lats []float64
	load := 0.4 * prof.MaxLoadRPS
	for len(lats) < samples {
		// Random-walk the load between 10% and 95% of max, the "varying
		// the incoming load" protocol of Sec. II-A.
		load += (rng.Float64() - 0.5) * 0.2 * prof.MaxLoadRPS
		load = mat.Clamp(load, 0.1*prof.MaxLoadRPS, 0.95*prof.MaxLoadRPS)
		r := srv.MustStep(asg, []float64{load})
		sv := r.Services[0]
		if sv.Completed == 0 {
			continue
		}
		feats = append(feats, append([]float64(nil), sv.NormPMCs[:]...))
		ipcs = append(ipcs, sv.PMCs.IPC())
		lats = append(lats, sv.P99Ms)
	}

	// Normalise IPC to [0,1] for the single-feature model.
	_, ipcMax := stats.MaxScale([][]float64{ipcs})
	ipcFeats := make([][]float64, len(ipcs))
	for i, v := range ipcs {
		x := v
		if ipcMax[0] > 0 {
			x = v / ipcMax[0]
		}
		ipcFeats[i] = []float64{x}
	}

	split := len(lats) * 7 / 10
	multi := fitAndEval(feats[:split], lats[:split], feats[split:], lats[split:], seed)
	ipc := fitAndEval(ipcFeats[:split], lats[:split], ipcFeats[split:], lats[split:], seed+1)

	res := Fig1Result{
		Service:  svcName,
		Samples:  len(lats),
		MultiPMC: summariseErrors(multi, lats[split:]),
		IPCOnly:  summariseErrors(ipc, lats[split:]),
	}
	pz := res.IPCOnly.PDF.ProbabilityAtZero()
	if pz > 0 {
		res.ZeroErrorGain = res.MultiPMC.PDF.ProbabilityAtZero() / pz
	}
	return res
}

// fitAndEval trains a small MLP regressor (the deep-RL function
// approximator of Sec. II-A) and returns the held-out prediction errors
// (predicted − measured, in ms).
func fitAndEval(trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := len(trainX[0])
	net := nn.NewSequential(
		nn.NewDenseReLU("h1", in, 32, rng),
		nn.NewDenseReLU("h2", 32, 16, rng),
		nn.NewDense("out", 16, 1, rng),
	)
	opt := nn.NewAdam(0.003)
	net.SetOptimizer(opt)

	// Scale targets to keep the regression well-conditioned.
	yMax := stats.Percentile(trainY, 99)
	if yMax <= 0 {
		yMax = 1
	}
	const batch = 64
	epochs := 40
	xb := mat.New(batch, in)
	yb := mat.New(batch, 1)
	for e := 0; e < epochs; e++ {
		for it := 0; it < len(trainX)/batch; it++ {
			for b := 0; b < batch; b++ {
				j := rng.Intn(len(trainX))
				copy(xb.Row(b), trainX[j])
				yb.Set(b, 0, trainY[j]/yMax)
			}
			pred := net.Forward(xb, true)
			_, grad := nn.MSE(pred, yb)
			opt.Open()
			net.Backward(grad)
		}
	}

	errs := make([]float64, len(testX))
	for i, x := range testX {
		pred := net.Forward(mat.FromSlice(1, in, append([]float64(nil), x...)), false)
		errs[i] = pred.At(0, 0)*yMax - testY[i]
	}
	return errs
}

func summariseErrors(errs, lats []float64) Fig1Model {
	d := stats.Describe(errs)
	span := d.Std * 4
	if span == 0 {
		span = 1
	}
	return Fig1Model{
		ErrMeanMs: d.Mean,
		ErrStdMs:  d.Std,
		PDF:       stats.NewHistogram(errs, -span, span, 60),
		Violins:   stats.ViolinByLatency(lats, errs, 6),
	}
}

// String renders the result in the paper's terms.
func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.1 %s (%d samples)\n", r.Service, r.Samples)
	fmt.Fprintf(&b, "  multi-PMC : mean err %+.3f ms, std %.3f ms\n", r.MultiPMC.ErrMeanMs, r.MultiPMC.ErrStdMs)
	fmt.Fprintf(&b, "  IPC only  : mean err %+.3f ms, std %.3f ms\n", r.IPCOnly.ErrMeanMs, r.IPCOnly.ErrStdMs)
	fmt.Fprintf(&b, "  P(zero error) gain multi-PMC vs IPC: %.2fx\n", r.ZeroErrorGain)
	b.WriteString("  violin (latency bucket → median err, IQR):\n")
	for i, v := range r.MultiPMC.Violins {
		if v.N == 0 {
			continue
		}
		iv := r.IPCOnly.Violins[i]
		fmt.Fprintf(&b, "    [%6.2f–%6.2f ms] multi %+7.3f (iqr %6.3f)   ipc %+7.3f (iqr %6.3f)\n",
			v.LatencyLo, v.LatencyHi, v.Median, v.Spread, iv.Median, iv.Spread)
	}
	return b.String()
}
