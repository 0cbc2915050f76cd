package scenario

import (
	"math"

	"github.com/twig-sched/twig/internal/rng"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// The three generators below are pure functions of (shape, length,
// seed): every draw comes from one rng.New(seed) stream consumed in a
// fixed order, so equal inputs give byte-identical traces and the
// golden determinism tests can pin them.

// CloudEdgeCfg shapes one tier of the cloud-edge family.
type CloudEdgeCfg struct {
	// MeanFrac is the long-run mean load as a fraction of peak.
	MeanFrac float64
	// Volatility is the per-second random-walk step (fraction of peak);
	// Revert pulls the walk back toward MeanFrac (0..1].
	Volatility float64
	Revert     float64
	// BurstEveryS, when positive, triggers Poisson offload bursts with
	// that mean spacing: the load multiplies by BurstMul for BurstS
	// seconds (a neighbouring tier shedding traffic here).
	BurstEveryS int
	BurstMul    float64
	BurstS      int
	// SmoothS, when > 1, applies a trailing moving average — the
	// statistical multiplexing an aggregation tier sees.
	SmoothS int
}

// CloudEdgeTrace generates n seconds of tiered cloud-edge load peaking
// at peakRPS.
func CloudEdgeTrace(peakRPS float64, n int, cfg CloudEdgeCfg, seed int64) *loadgen.Trace {
	r := rng.New(seed)
	raw := make([]float64, n)
	level := cfg.MeanFrac
	burstLeft := 0
	for t := 0; t < n; t++ {
		level += cfg.Revert*(cfg.MeanFrac-level) + cfg.Volatility*r.NormFloat64()
		if level < 0 {
			level = 0
		}
		if level > 1 {
			level = 1
		}
		mul := 1.0
		if cfg.BurstEveryS > 0 {
			if burstLeft == 0 && r.Float64() < 1/float64(cfg.BurstEveryS) {
				burstLeft = cfg.BurstS
			}
			if burstLeft > 0 {
				mul = cfg.BurstMul
				burstLeft--
			}
		}
		raw[t] = peakRPS * level * mul
	}
	if cfg.SmoothS > 1 {
		sm := make([]float64, n)
		var sum float64
		for t := 0; t < n; t++ {
			sum += raw[t]
			if t >= cfg.SmoothS {
				sum -= raw[t-cfg.SmoothS]
			}
			win := t + 1
			if win > cfg.SmoothS {
				win = cfg.SmoothS
			}
			sm[t] = sum / float64(win)
		}
		raw = sm
	}
	return loadgen.NewTrace(raw, true)
}

// AgenticBurstCfg shapes the agentic spawn-fan-out family.
type AgenticBurstCfg struct {
	// SessionsPerS is the mean rate of new agent sessions (Poisson).
	SessionsPerS float64
	// Each call spawns on average FanOut·Decay^depth child tool-calls;
	// the cascade stops at MaxDepth.
	FanOut   float64
	Decay    float64
	MaxDepth int
	// SpreadS jitters each depth level's arrivals over [0,SpreadS]
	// extra seconds past the one second per call round-trip.
	SpreadS int
	// BaseRPS is the steady non-agentic background floor.
	BaseRPS float64
}

// MeanCallsPerSession is the expected total requests one session
// generates, root included.
func MeanCallsPerSession(cfg AgenticBurstCfg) float64 {
	total, level := 0.0, 1.0
	for d := 0; d <= cfg.MaxDepth; d++ {
		total += level
		level *= cfg.FanOut * math.Pow(cfg.Decay, float64(d))
	}
	return total
}

// AgenticBurstTrace generates n seconds of agentic load: every second
// draws Poisson(SessionsPerS) new sessions, each spawning a cascade
// whose depth-d calls land d seconds (plus jitter) later. Arrivals past
// the horizon wrap around — the trace loops, so no spawned work is
// lost.
//
// The draws' means repeat: Decay^d is taken once per depth, e^−mean once
// for the sessions' mean and once per (calls, depth) mean of the cascade,
// each the value a fresh math.Pow or math.Exp would give.
func AgenticBurstTrace(n int, cfg AgenticBurstCfg, seed int64) *loadgen.Trace {
	r := rng.New(seed)
	rps := make([]float64, n)
	depth := max(cfg.MaxDepth, 0)
	memo := make([]float64, depth*(1+memoCalls))
	pow, ls := memo[:depth], cascadeLs(memo[depth:])
	for d := range pow {
		pow[d] = math.Pow(cfg.Decay, float64(d))
	}
	sessionsL := knuthL(cfg.SessionsPerS)
	for t := 0; t < n; t++ {
		rps[t] += cfg.BaseRPS
		sessions := poisson(r, cfg.SessionsPerS, sessionsL)
		for s := 0; s < sessions; s++ {
			calls := 1
			for d := 0; calls > 0 && d <= cfg.MaxDepth; d++ {
				for c := 0; c < calls; c++ {
					at := t + d
					if cfg.SpreadS > 0 {
						at += r.Intn(cfg.SpreadS + 1)
					}
					rps[at%n]++
				}
				if d < cfg.MaxDepth {
					mean := float64(calls) * cfg.FanOut * pow[d]
					calls = poisson(r, mean, ls.at(d, calls, mean))
				} else {
					calls = 0
				}
			}
		}
	}
	return loadgen.NewTrace(rps, true)
}

// memoCalls is how many call counts a cascade memoises e^−mean for at
// each depth; a level of more calls takes it afresh.
const memoCalls = 64

// cascadeLs memoises knuthL for a cascade's draws, memoCalls a depth:
// element d·memoCalls + calls is the draw's at depth d after calls calls,
// 0 until first taken. A depth's mean is a function of its call count.
type cascadeLs []float64

// at returns knuthL(mean) for the draw at depth d after calls calls. A
// memoised 0 is taken again, which only a mean Knuth's method does not
// run for gives.
func (m cascadeLs) at(d, calls int, mean float64) float64 {
	if calls >= memoCalls {
		return knuthL(mean)
	}
	l := &m[d*memoCalls+calls]
	if *l == 0 {
		*l = knuthL(mean)
	}
	return *l
}

// DiurnalMobilityCfg shapes the cellular diurnal family.
type DiurnalMobilityCfg struct {
	// PeriodS is the day length; PhaseS shifts this node's day, so a
	// ring of phase-shifted cells models users moving between them.
	PeriodS int
	PhaseS  int
	// NightFrac is the load floor at the bottom of the cycle.
	NightFrac float64
	// Harmonic adds a second harmonic (the morning/evening double peak).
	Harmonic float64
	// Jitter is multiplicative Gaussian noise on every sample.
	Jitter float64
}

// DiurnalMobilityTrace generates n seconds of phase-shifted diurnal
// load peaking at peakRPS.
func DiurnalMobilityTrace(peakRPS float64, n int, cfg DiurnalMobilityCfg, seed int64) *loadgen.Trace {
	r := rng.New(seed)
	rps := make([]float64, n)
	for t := 0; t < n; t++ {
		x := 2 * math.Pi * float64(t+cfg.PhaseS) / float64(cfg.PeriodS)
		s := 0.5*(1+math.Sin(x)) + cfg.Harmonic*math.Sin(2*x+1)
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		v := peakRPS * (cfg.NightFrac + (1-cfg.NightFrac)*s) * (1 + cfg.Jitter*r.NormFloat64())
		if v < 0 {
			v = 0
		}
		rps[t] = v
	}
	return loadgen.NewTrace(rps, true)
}

// knuthMax is the largest mean poisson draws by Knuth's product method.
const knuthMax = 30

// knuthL is the l poisson takes for mean: e^−mean where Knuth's method
// runs, 0 elsewhere.
func knuthL(mean float64) float64 {
	if mean > 0 && mean <= knuthMax {
		return math.Exp(-mean)
	}
	return 0
}

// poisson draws a Poisson variate: Knuth's product method for small
// means, the Gaussian approximation above knuthMax (where Knuth's running
// product would underflow). l is knuthL(mean), which a caller drawing
// from one mean again and again computes once.
func poisson(r *rng.Rand, mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > knuthMax {
		v := math.Round(mean + math.Sqrt(mean)*r.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k, p := 0, 1.0
	for p > l {
		k++
		p *= r.Float64()
	}
	return k - 1
}
