// Package twigbench contains the benchmark harness that regenerates
// every table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus micro-benchmarks behind Table III
// and ablation benches for the design choices DESIGN.md lists under
// "Learning-design decisions and extensions".
//
// Each BenchmarkFigN/BenchmarkTableN runs the corresponding experiment
// at the scaled-down "quick" profile and reports the headline numbers as
// custom benchmark metrics, so `go test -bench=.` doubles as the
// reproduction harness. The cmd/twig-experiments binary prints the full
// tables (including at the paper's scale with -scale paper).
package twigbench

import (
	"math/rand"
	"testing"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/scenario"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/interference"
	"github.com/twig-sched/twig/internal/sim/platform"
	"github.com/twig-sched/twig/internal/sim/pmc"
	"github.com/twig-sched/twig/internal/sim/power"
	"github.com/twig-sched/twig/internal/sim/service"
)

// benchScale is the scaled-down profile the benches regenerate the
// evaluation at — identical to the quick profile used by
// cmd/twig-experiments, so the headline metrics match EXPERIMENTS.md.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Name = "bench"
	return sc
}

// BenchmarkFig1PredictionError regenerates Fig. 1: multi-PMC vs IPC-only
// tail-latency prediction error for Memcached.
func BenchmarkFig1PredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1("memcached", 2000, 1)
		b.ReportMetric(r.ZeroErrorGain, "zeroErrGain")
		b.ReportMetric(r.MultiPMC.ErrStdMs, "pmcStd(ms)")
		b.ReportMetric(r.IPCOnly.ErrStdMs, "ipcStd(ms)")
	}
}

// BenchmarkTable1PMCSelection regenerates Table I's correlation + PCA
// selection pipeline.
func BenchmarkTable1PMCSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1([]string{"masstree", "xapian"}, 15, 1)
		b.ReportMetric(float64(r.Components), "pcs@95%")
	}
}

// BenchmarkFig4PowerModelPAAE regenerates Fig. 4: the Eq. 2 power-model
// PAAE for Masstree.
func BenchmarkFig4PowerModelPAAE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4("masstree", 8, 1)
		b.ReportMetric(r.PAAE, "PAAE%")
		b.ReportMetric(r.Model.R2, "R2")
	}
}

// BenchmarkTable2Capacity regenerates Table II's capacity knees.
func BenchmarkTable2Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(30, 1)
		b.ReportMetric(r.Rows[0].QoSTargetMs, "masstreeQoS(ms)")
	}
}

// BenchmarkTable3OverheadGradientDescent measures the per-interval
// gradient-descent cost with the paper-size network (Table III row 1).
func BenchmarkTable3OverheadGradientDescent(b *testing.B) {
	r := experiments.Table3(b.N)
	b.ReportMetric(float64(r.GradientDescent.Microseconds()), "µs/step")
}

// BenchmarkTable3OverheadMonitorAndMapper measures PMC smoothing and the
// mapper call (Table III rows 2–3) on a colocated pair: the world is
// built and stepped once, outside the timed loops, so the monitor smooths
// counters a simulated interval produced.
func BenchmarkTable3OverheadMonitorAndMapper(b *testing.B) {
	srv, asg, loads := colocatedPair()
	cores := srv.ManagedCores()
	var res sim.StepResult
	for i := 0; i < 5; i++ {
		res = srv.MustStep(asg, loads)
	}
	samples := make([]pmc.Sample, len(res.Services))
	for i, sv := range res.Services {
		samples[i] = sv.NormPMCs
	}
	b.Run("monitor", func(b *testing.B) {
		monitor := core.NewMonitor(len(samples), 5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			monitor.Observe(samples)
		}
	})
	b.Run("mapper", func(b *testing.B) {
		mapper := core.NewMapper(cores)
		reqs := []core.Request{{Cores: 7, FreqGHz: 1.6}, {Cores: 9, FreqGHz: 1.8}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapper.Map(reqs)
		}
	})
}

// BenchmarkAgentObserve measures the steady-state cost of one control
// interval's learning work — store a transition, sample a minibatch,
// forward/backward the paper-size network and apply Adam — the loop that
// must fit inside Twig's one-second budget (Table III row 1).
//
// /varied feeds seeded, distinct states, actions and rewards with
// dropout on, so the minibatch has what node_paper_twigc's has: units
// dead across the whole batch next to per-element zeros no predictor
// learns (one transition repeated would flatter any kernel that
// branches on its data). /quick feeds the same to the quick scale's
// agent, the one the daemon runs (daemon_quick_churn): bdq.QuickAgent,
// 64/48/32, batch 32, no dropout and three train steps an Observe.
func BenchmarkAgentObserve(b *testing.B) {
	b.Run("varied", func(b *testing.B) { benchAgentObserve(b, experiments.PaperScale()) })
	b.Run("quick", func(b *testing.B) { benchAgentObserve(b, experiments.QuickScale()) })
}

func benchAgentObserve(b *testing.B, sc experiments.Scale) {
	cfg := sc.AgentConfig
	cfg.Spec.StateDim, cfg.Spec.Agents, cfg.Spec.Dims = 2*int(pmc.NumCounters), 2, []int{18, 9}
	cfg.Seed = 1
	agent := bdq.NewAgent(cfg)
	rng := rand.New(rand.NewSource(1))
	ts := make([]replay.Transition, 256)
	for i := range ts {
		t := replay.Transition{
			State:     make([]float64, cfg.Spec.StateDim),
			NextState: make([]float64, cfg.Spec.StateDim),
			Actions:   []int{rng.Intn(18), rng.Intn(9), rng.Intn(18), rng.Intn(9)},
			Rewards:   []float64{rng.NormFloat64(), rng.NormFloat64()},
		}
		for j := range t.State {
			t.State[j] = rng.Float64()
			t.NextState[j] = rng.Float64()
		}
		ts[i] = t
	}
	for i := 0; i < 2*sc.BatchSize; i++ {
		agent.Observe(ts[i%len(ts)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Observe(ts[i%len(ts)])
	}
}

// BenchmarkFig5TwigS regenerates Fig. 5 for one service across the three
// load levels (run cmd/twig-experiments for all four services).
func BenchmarkFig5TwigS(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5([]string{"masstree"}, sc, 1)
		b.ReportMetric(r.AvgQoS("twig-s"), "twigQoS")
		b.ReportMetric(r.AvgEnergyNorm("twig-s"), "twigEnergy/static")
		b.ReportMetric(r.AvgEnergyNorm("heracles"), "heraclesEnergy/static")
	}
}

// BenchmarkFig6Mappings regenerates Fig. 6's mapping + tardiness
// distributions.
func BenchmarkFig6Mappings(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(sc, 1)
		for _, tr := range r.Traces {
			if tr.Manager == "twig-s" {
				b.ReportMetric(float64(tr.Migrations), "twigMigrations")
			}
			if tr.Manager == "hipster" {
				b.ReportMetric(float64(tr.Migrations), "hipsterMigrations")
			}
		}
	}
}

// BenchmarkFig7Learning regenerates the Fig. 7 learning curves.
func BenchmarkFig7Learning(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(sc, 1)
		b.ReportMetric(float64(r.CrossedAt80["twig-s"]), "twig80@bucket")
	}
}

// BenchmarkFigMemComplexity regenerates the memory-complexity analysis.
func BenchmarkFigMemComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigMem(3, 30, 25)
		b.ReportMetric(float64(r.TwigBytes)/(1<<20), "twigMB")
	}
}

// BenchmarkFig8TransferS regenerates the Twig-S transfer-learning
// comparison.
func BenchmarkFig8TransferS(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(sc, 1)
		t := r.Targets[0]
		b.ReportMetric(float64(t.ScratchTo80), "scratch80")
		b.ReportMetric(float64(t.TransferTo80), "transfer80")
	}
}

// BenchmarkFig9TransferC regenerates the Twig-C transfer-learning
// comparison.
func BenchmarkFig9TransferC(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(sc, 1)
		b.ReportMetric(r.TransferPowerW, "transferW")
		b.ReportMetric(r.ScratchPowerW, "scratchW")
	}
}

// BenchmarkFig10VaryingS regenerates the Fig. 10 varying-load traces.
func BenchmarkFig10VaryingS(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(sc, 1)
		for _, tr := range r.Traces {
			if tr.Manager == "twig-s" {
				b.ReportMetric(tr.QoSGuarantee, "twigQoS")
			}
		}
	}
}

// BenchmarkFig11VaryingC regenerates the Fig. 11 Twig-C varying-load
// trace.
func BenchmarkFig11VaryingC(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(sc, 1)
		b.ReportMetric(r.QoSGuarantee[0], "mosesQoS")
	}
}

// BenchmarkFig12MappingC regenerates the Fig. 12 PARTIES vs Twig-C
// mapping distributions.
func BenchmarkFig12MappingC(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(sc, 1)
		for _, tr := range r.Traces {
			if tr.Manager == "twig-c" {
				b.ReportMetric(float64(tr.Migrations), "twigMigrations")
			} else {
				b.ReportMetric(float64(tr.Migrations), "partiesMigrations")
			}
		}
	}
}

// BenchmarkFig13TwigC regenerates Fig. 13 for one pair (run
// cmd/twig-experiments for all six pairs).
func BenchmarkFig13TwigC(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13([][2]string{{"masstree", "moses"}}, sc, 1)
		b.ReportMetric(r.AvgQoS("twig-c"), "twigQoS")
		b.ReportMetric(r.AvgEnergyNorm("twig-c"), "twigEnergy/static")
	}
}

// BenchmarkExtensionCAT evaluates the optional third (Intel CAT) action
// branch on a cache-oversubscribed pair.
func BenchmarkExtensionCAT(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.ExtensionCAT(sc, 1)
		b.ReportMetric(r.WithQoS[0], "mosesQoS+CAT")
		b.ReportMetric(r.WithoutQoS[0], "mosesQoS-CAT")
	}
}

// BenchmarkExtensionBatchColoc evaluates LC + best-effort batch
// colocation: batch throughput each manager's reclamation produces.
func BenchmarkExtensionBatchColoc(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.BatchColoc(sc, 1)
		for _, c := range r.Cells {
			if c.Manager == "twig-s" {
				b.ReportMetric(c.BatchWork, "twigBatchWork")
			}
		}
	}
}

// --- Ablation benches (DESIGN.md, "Learning-design decisions and extensions") ---

// BenchmarkAblationUniformReplay compares prioritised vs uniform replay.
func BenchmarkAblationUniformReplay(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReplay(sc, 1)
		b.ReportMetric(r.Cells[0].QoSGuarantee, "perQoS")
		b.ReportMetric(r.Cells[1].QoSGuarantee, "uniformQoS")
	}
}

// BenchmarkAblationEta sweeps the PMC smoothing window.
func BenchmarkAblationEta(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationEta(sc, 1)
		b.ReportMetric(r.Cells[1].QoSGuarantee, "eta5QoS")
	}
}

// BenchmarkAblationReward sweeps the power-reward weight θ.
func BenchmarkAblationReward(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReward(sc, 1)
		b.ReportMetric(r.Cells[0].AvgPowerW, "theta0W")
		b.ReportMetric(r.Cells[1].AvgPowerW, "theta0.5W")
	}
}

// BenchmarkAblationSingleV ablates the multi-agent state-value streams
// (per-agent V vs one shared V) on a colocated pair.
func BenchmarkAblationSingleV(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationMultiAgentValue(sc, 1)
		b.ReportMetric(r.Cells[0].QoSGuarantee, "perAgentVQoS")
		b.ReportMetric(r.Cells[1].QoSGuarantee, "sharedVQoS")
	}
}

// BenchmarkAblationTargetMode compares mean vs per-branch TD targets.
func BenchmarkAblationTargetMode(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationTargetMode(sc, 1)
		b.ReportMetric(r.Cells[0].QoSGuarantee, "meanQoS")
		b.ReportMetric(r.Cells[1].QoSGuarantee, "perBranchQoS")
	}
}

// simWarmSteps is how many intervals the simulator benches run before
// the timer starts: the server's step storage has reached its size by
// then, so one timed iteration (-benchtime 1x) reads a warm step.
const simWarmSteps = 50

// colocatedPair is the operating point of the step and Table III benches:
// masstree and moses at 30 % load, half a socket each at 2.0 GHz.
func colocatedPair() (*sim.Server, sim.Assignment, []float64) {
	srv := experiments.NewServer(1, "masstree", "moses")
	cores := srv.ManagedCores()
	asg := sim.Assignment{
		PerService: []sim.Allocation{
			{Cores: cores[:9], FreqGHz: 2.0},
			{Cores: cores[9:], FreqGHz: 2.0},
		},
		IdleFreqGHz: 1.2,
	}
	loads := []float64{0.3 * service.MustLookup("masstree").MaxLoadRPS, 0.3 * service.MustLookup("moses").MaxLoadRPS}
	return srv, asg, loads
}

// BenchmarkSimulatorStep isolates the simulator's per-interval cost for
// a colocated pair under a static assignment.
func BenchmarkSimulatorStep(b *testing.B) {
	srv, asg, loads := colocatedPair()
	for i := 0; i < simWarmSteps; i++ {
		srv.MustStep(asg, loads)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.MustStep(asg, loads)
	}
}

// BenchmarkSimulatorStepAgenticBurst is the step under assignment churn:
// the agentic-burst pod (three services on its scenario traces) with a
// fresh (cores, DVFS) request per service placed by the mapper every
// interval, as Twig's exploration produces.
func BenchmarkSimulatorStepAgenticBurst(b *testing.B) {
	worlds, err := scenario.MustNamed("agentic-burst").Worlds(1)
	if err != nil {
		b.Fatal(err)
	}
	w := worlds[0]
	srv := sim.NewServer(w.SimConfig(1), w.ServiceSpecs(1, experiments.QoSTarget))
	patterns := w.Patterns()
	mapper := core.NewMapper(srv.ManagedCores())
	r := rand.New(rand.NewSource(1))
	reqs := make([]core.Request, len(patterns))
	loads := make([]float64, len(patterns))
	step := func(t int) {
		for i, p := range patterns {
			reqs[i] = core.Request{
				Cores:   1 + r.Intn(mapper.NumCores()),
				FreqGHz: platform.FreqForStep(r.Intn(platform.NumFreqSteps)),
			}
			loads[i] = p.RPS(t)
		}
		srv.MustStep(mapper.Map(reqs), loads)
	}
	for t := 0; t < simWarmSteps; t++ {
		step(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(simWarmSteps + i)
	}
}

// The leaves of the simulator step, each at a fixed operating point.

// BenchmarkServiceRunInterval is one service-interval of the queueing
// model on a full socket: masstree at three load levels (overload runs
// against the backlog cap), memcached near saturation — the longest runs
// any process sorts, about 30 000 sojourns — and masstree with constant
// request work, whose sojourns sit a few ulps apart under the odd queued
// one and so pile into a few of the sort's buckets.
func BenchmarkServiceRunInterval(b *testing.B) {
	shares, freqs := make([]float64, 18), make([]float64, 18)
	for i := range shares {
		shares[i], freqs[i] = 1, 2.0
	}
	masstree, memcached := service.MustLookup("masstree"), service.MustLookup("memcached")
	constant := masstree
	constant.WorkSigma = 0
	for _, lv := range []struct {
		name string
		p    service.Profile
		frac float64
	}{
		{"light", masstree, 0.2},
		{"near-saturation", masstree, 0.95},
		{"overload", masstree, 1.6},
		{"memcached/near-saturation", memcached, 0.95},
		{"clustered", constant, 0.5},
	} {
		b.Run(lv.name, func(b *testing.B) {
			p := lv.p
			capGHz := p.CapacityGHz(shares, freqs)
			inst := service.NewInstance(p, 18, 1)
			for i := 0; i < simWarmSteps; i++ {
				inst.RunInterval(lv.frac*p.MaxLoadRPS, capGHz, 1.05, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.RunInterval(lv.frac*p.MaxLoadRPS, capGHz, 1.05, 1)
			}
		})
	}
}

// BenchmarkInterferenceCompute is the contention model for three
// colocated services and a batch workload, into reused storage.
func BenchmarkInterferenceCompute(b *testing.B) {
	model := interference.New(interference.DefaultConfig())
	var demands []interference.Demand
	for _, name := range []string{"memcached", "masstree", "xapian"} {
		p := service.MustLookup(name)
		demands = append(demands, interference.Demand{
			BandwidthGBs:     0.5 * p.MaxLoadRPS * p.MeanWork(18) * p.BWPerWork,
			CacheMB:          p.CacheMB,
			BWSensitivity:    p.BWSensitivity,
			CacheSensitivity: p.CacheSensitivity,
		})
	}
	demands = append(demands, interference.Demand{BandwidthGBs: 20, CacheMB: 30, BWSensitivity: 0.5, CacheSensitivity: 0.5})
	var out []interference.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = model.ComputeInto(out, demands)
	}
}

// BenchmarkPMCSynthesize is one service's counter synthesis and
// normalisation.
func BenchmarkPMCSynthesize(b *testing.B) {
	synth := pmc.NewSynthesizer(rand.New(rand.NewSource(1)), 0.02)
	maxima := pmc.CalibrationMaxima(18, 2.0)
	p := service.MustLookup("masstree")
	rates := pmc.Rates{
		IPCBase: p.IPCBase, BranchRatio: p.BranchRatio, BranchMissRate: p.BranchMissRate,
		MemAccessRate: p.MemAccessRate, L1DRate: p.L1DRate, L1IRate: p.L1IRate, UopFactor: p.UopFactor,
	}
	gt := pmc.GroundTruth{BusyCoreSeconds: 3.5, AvgFreqGHz: 1.6, WorkDone: 5, Inflation: 1.05, LLCMissFactor: 1.1}
	var sink pmc.Sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = pmc.Normalize(synth.Synthesize(gt, rates), maxima)
	}
	_ = sink
}

// BenchmarkSocketPower is the true and the RAPL-read socket power of an
// 18-core socket in mixed states.
func BenchmarkSocketPower(b *testing.B) {
	pow := power.New(power.DefaultConfig(), rand.New(rand.NewSource(1)))
	states := make([]power.CoreState, 18)
	for c := range states {
		states[c] = power.CoreState{Online: true, FreqGHz: 1.2 + 0.1*float64(c%9), Utilization: float64(c%4) / 4, Owned: c%3 != 0}
	}
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = pow.SocketPower(states) + pow.ReadRAPL(states)
	}
	_ = sink
}

// The set-up layer: work done once before the first interval, fanned out
// over GOMAXPROCS (run with -cpu 1,2 to read the fan-out's gain).

// BenchmarkProfilePower is one service's Eq. 2 profiling campaign, the
// 135-point load × cores × DVFS grid PowerModelFor fits.
func BenchmarkProfilePower(b *testing.B) {
	spec := sim.ServiceSpec{Profile: service.MustLookup("masstree"), Seed: 77}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ProfilePower(spec, sim.DefaultConfig(), 12)
	}
}

// BenchmarkScenarioWorlds expands the agentic-burst preset: one trace
// per (pod, service), each from its own seeded stream.
func BenchmarkScenarioWorlds(b *testing.B) {
	spec := scenario.MustNamed("agentic-burst")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Worlds(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
