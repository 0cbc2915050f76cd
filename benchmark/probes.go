package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/mat"
	"github.com/twig-sched/twig/internal/metrics"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/interference"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/pmc"
	"github.com/twig-sched/twig/internal/sim/power"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Layer probes measure, after the timed loop, the layers the loop
// hides: objects built from the same public constructors and
// configuration as the workload, driven through their public entry
// points at the shapes, batch sizes, member counts, loads and states
// the live run recorded. Every probe makes at least probeCalls timed
// calls after its warm-up.
// probeBatch is how many calls of a nanosecond-scale function share one
// clock reading.
const probeBatch = 256

// Variables so the package's smoke test can shrink them.
var (
	probeWarm  = 20
	probeCalls = 200
)

// timeCalls times n calls of fn one by one, after warm untimed calls.
func timeCalls(warm, n int, fn func()) []int64 {
	for i := 0; i < warm; i++ {
		fn()
	}
	out := make([]int64, n)
	for i := range out {
		t0 := nowNs()
		fn()
		out[i] = nowNs() - t0
	}
	return out
}

// medianUs is the median of timeCalls, in µs.
func medianUs(warm, n int, fn func()) float64 {
	return percentile(timeCalls(warm, n, fn), 0.5) / 1e3
}

// nsPerCall is for functions too short to time singly: the median over
// probeWarm+21 batches of probeBatch calls, per call.
func nsPerCall(fn func()) float64 {
	batch := func() {
		for i := 0; i < probeBatch; i++ {
			fn()
		}
	}
	return percentile(timeCalls(2, 21, batch), 0.5) / probeBatch
}

// specsOf reads a server's service specs back.
func specsOf(srv *sim.Server) []sim.ServiceSpec {
	specs := make([]sim.ServiceSpec, srv.NumServices())
	for i := range specs {
		specs[i] = srv.Spec(i)
	}
	return specs
}

// simProbes replays the sampled (assignment, loads) pairs of the live
// run against a fresh server of the same configuration, then times the
// simulator's sublayers on their own at the same operating point. live
// says whether the run recorded sim.step spans itself; when it did not
// (the daemon and the fleet hide Server.Step), the replay also supplies
// the step percentiles.
func simProbes(cfg sim.Config, specs []sim.ServiceSpec, sample stepSample, live bool, out map[string]float64) {
	if len(sample.asgs) == 0 {
		return
	}
	srv := sim.NewServer(cfg, specs)
	i := 0
	var completed int
	step := func() {
		res := srv.MustStep(sample.asgs[i%len(sample.asgs)], sample.loads[i%len(sample.asgs)])
		for s := range res.Services {
			completed += res.Services[s].Completed
		}
		i++
	}
	ns := timeCalls(probeWarm, probeCalls, step)
	if !live {
		out["sim.step_us_p50"] = percentile(ns, 0.5) / 1e3
		out["sim.step_us_p99"] = percentile(ns, 0.99) / 1e3
		if _, seen := out["sim.requests_per_interval"]; !seen {
			out["sim.requests_per_interval"] = float64(completed) / float64(probeWarm+probeCalls)
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 0; j < probeCalls; j++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	out["sim.step_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(probeCalls)
	out["sim.step_alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(probeCalls)

	asg, loads := sample.asgs[0], sample.loads[0]
	out["sim.validate_ns"] = nsPerCall(func() { _ = srv.Validate(asg, loads) })

	// Sublayers, at the first sampled operating point: the cores and
	// frequency each service held and the load it was offered.
	k := len(specs)
	full := cfg.Platform.CoresPerSocket
	var runUs float64
	demands := make([]interference.Demand, k)
	for s, spec := range specs {
		n := len(asg.PerService[s].Cores)
		if n == 0 {
			n = 1
		}
		shares, freqs := make([]float64, n), make([]float64, n)
		for c := range shares {
			shares[c], freqs[c] = 1, asg.PerService[s].FreqGHz
		}
		capGHz := spec.Profile.CapacityGHz(shares, freqs)
		inst := service.NewInstance(spec.Profile, full, spec.Seed)
		load := loads[s]
		runUs += medianUs(probeWarm, probeCalls, func() { inst.RunInterval(load, capGHz, 1.05, 1) })
		demands[s] = interference.Demand{
			BandwidthGBs:     load * inst.MeanWork() * spec.Profile.BWPerWork,
			CacheMB:          spec.Profile.CacheMB,
			BWSensitivity:    spec.Profile.BWSensitivity,
			CacheSensitivity: spec.Profile.CacheSensitivity,
		}
	}
	out["sim.service_run_us"] = runUs

	model := interference.New(cfg.Interference)
	out["sim.interference_ns"] = nsPerCall(func() { model.Compute(demands) })

	_, hi := cfg.Platform.FreqRange()
	synth := pmc.NewSynthesizer(rand.New(rand.NewSource(1)), cfg.PMCNoise)
	maxima := pmc.CalibrationMaxima(full, hi)
	gt := pmc.GroundTruth{BusyCoreSeconds: 3.5, AvgFreqGHz: 1.6, WorkDone: 5, Inflation: 1.05, LLCMissFactor: 1.1}
	p0 := specs[0].Profile
	rates := pmc.Rates{
		IPCBase: p0.IPCBase, BranchRatio: p0.BranchRatio, BranchMissRate: p0.BranchMissRate,
		MemAccessRate: p0.MemAccessRate, L1DRate: p0.L1DRate, L1IRate: p0.L1IRate, UopFactor: p0.UopFactor,
	}
	out["sim.pmc_ns"] = float64(k) * nsPerCall(func() { pmc.Normalize(synth.Synthesize(gt, rates), maxima) })

	pow := power.New(cfg.Power, rand.New(rand.NewSource(1)))
	states := make([]power.CoreState, full)
	for c := range states {
		states[c] = power.CoreState{Online: true, FreqGHz: 1.2 + 0.1*float64(c%9), Utilization: float64(c%4) / 4, Owned: c%3 != 0}
	}
	out["sim.power_ns"] = nsPerCall(func() { pow.SocketPower(states); pow.ReadRAPL(states) })
}

// ctrlProbes times the observation tracker on the sampled results, and
// core's monitor and mapper on the states and requests they carried.
func ctrlProbes(srv *sim.Server, sample stepSample, out map[string]float64) {
	if len(sample.res) == 0 {
		return
	}
	var tr ctrl.ObservationTracker
	i := 0
	out["ctrl.observe_ns_p50"] = nsPerCall(func() {
		tr.Observe(srv, sample.res[i%len(sample.res)])
		i++
	})

	k := srv.NumServices()
	mon := core.NewMonitor(k, 5)
	samples := make([]pmc.Sample, k)
	for s := range samples {
		samples[s] = sample.res[0].Services[s].NormPMCs
	}
	out["core.monitor_observe_ns"] = nsPerCall(func() { mon.Observe(samples) })

	mapper := core.NewMapper(srv.ManagedCores())
	reqs := requestsOf(sample.asgs[0])
	out["core.mapper_map_ns"] = nsPerCall(func() { mapper.Map(reqs) })
}

// requestsOf turns an assignment back into the per-service requests
// that produce it.
func requestsOf(asg sim.Assignment) []core.Request {
	reqs := make([]core.Request, len(asg.PerService))
	for i, a := range asg.PerService {
		n := len(a.Cores)
		if n < 1 {
			n = 1
		}
		reqs[i] = core.Request{Cores: n, FreqGHz: a.FreqGHz}
	}
	return reqs
}

// loadgenProbe times Pattern.RPS over the workload's own patterns.
func loadgenProbe(patterns []loadgen.Pattern, out map[string]float64) {
	t := 0
	out["loadgen.rps_ns_per_call"] = nsPerCall(func() {
		patterns[t%len(patterns)].RPS(t)
		t++
	})
}

// liveTransitions makes transitions of the agent's shape whose states are
// the ones the live run saw (each service's normalised PMC vector, as
// the monitor concatenates them), with actions and rewards from a fixed
// stream. The kernels skip zero activations, so what a step costs
// depends on the data: the probes feed the live agent live states.
func liveTransitions(spec bdq.Spec, sample stepSample) []replay.Transition {
	rng := rand.New(rand.NewSource(7))
	states := make([][]float64, 0, len(sample.res))
	for _, res := range sample.res {
		var v []float64
		for i := range res.Services {
			v = append(v, res.Services[i].NormPMCs[:]...)
		}
		if len(v) == spec.StateDim {
			states = append(states, v)
		}
	}
	for len(states) < 2 { // no usable sample: uniform states
		v := make([]float64, spec.StateDim)
		for i := range v {
			v[i] = rng.Float64()
		}
		states = append(states, v)
	}
	out := make([]replay.Transition, len(states))
	for i := range out {
		t := replay.Transition{State: states[i], NextState: states[(i+1)%len(states)]}
		for k := 0; k < spec.Agents; k++ {
			for _, d := range spec.Dims {
				t.Actions = append(t.Actions, rng.Intn(d))
			}
			t.Rewards = append(t.Rewards, 2*rng.Float64()-1)
		}
		out[i] = t
	}
	return out
}

// agentProbes times the learning stack of the live run: the agent the
// run trained (its weights, replay buffer and configuration), fed the
// states the run saw. It drives bdq, then nn and mat at the agent's own
// shapes, and a replay buffer of the same capacity and fill. It changes
// the agent, so it runs after everything that reads the run's outcome.
func agentProbes(agent *bdq.Agent, sample stepSample, out map[string]float64) {
	cfg := agent.Config()
	spec := cfg.Spec
	trs := liveTransitions(spec, sample)
	next := 0
	tr := func() replay.Transition { next++; return trs[next%len(trs)] }

	for agent.ReplayLen() < cfg.WarmupSteps { // a learner too young to train yet
		agent.Observe(tr())
	}
	out["bdq.observe_us_p50"] = medianUs(min(5, probeWarm), probeCalls, func() { agent.Observe(tr()) })
	out["bdq.select_us_p50"] = medianUs(probeWarm, probeCalls, func() { agent.SelectActions(tr().State) })
	out["bdq.params"] = float64(agent.Online().NumParams())

	// One training-mode forward and backward of the online network over
	// a minibatch of live states, then one optimiser step.
	net := agent.Online()
	states := mat.New(cfg.BatchSize, spec.StateDim)
	for r := 0; r < states.Rows; r++ {
		copy(states.Row(r), tr().State)
	}
	o := net.Forward(states, true)
	gradQ := make([][]*mat.Matrix, len(o.Q))
	for k := range o.Q {
		gradQ[k] = make([]*mat.Matrix, len(o.Q[k]))
		for d := range o.Q[k] {
			g := mat.New(o.Q[k][d].Rows, o.Q[k][d].Cols)
			g.Fill(1e-3)
			gradQ[k][d] = g
		}
	}
	out["bdq.forward_us"] = medianUs(probeWarm, probeCalls, func() { net.Forward(states, true) })
	out["bdq.backward_us"] = medianUs(probeWarm, probeCalls, func() { net.ZeroGrad(); net.Backward(gradQ) })
	opt := nn.NewAdam(cfg.LearningRate)
	params := net.Params()
	out["nn.adam_step_us"] = medianUs(probeWarm, probeCalls, func() { opt.Step(params) })

	buf := replay.NewPrioritized(cfg.ReplayCapacity, cfg.PERAlpha, cfg.PERBeta0, cfg.PERAnnealSteps)
	for i := 0; i < agent.ReplayLen(); i++ {
		buf.Add(tr())
	}
	rng := rand.New(rand.NewSource(3))
	var batch replay.Batch
	tdErr := make([]float64, cfg.BatchSize)
	for i := range tdErr {
		tdErr[i] = rng.Float64()
	}
	out["replay.add_ns"] = nsPerCall(func() { buf.Add(tr()) })
	out["replay.sample_us"] = medianUs(probeWarm, probeCalls, func() { buf.SampleInto(&batch, cfg.BatchSize, rng) })
	out["replay.update_prio_us"] = medianUs(probeWarm, probeCalls, func() { buf.UpdatePriorities(batch.Indices, tdErr) })

	k, n := widestLayer(spec)
	matProbes(cfg.BatchSize, k, n, 1, out)
}

// widestLayer returns the (inputs, outputs) of the shared-representation
// layer with the most weights: the GEMM shape that dominates a step.
func widestLayer(spec bdq.Spec) (k, n int) {
	in := spec.StateDim
	for _, h := range spec.SharedHidden {
		if in*h > k*n {
			k, n = in, h
		}
		in = h
	}
	return k, n
}

// matProbes times the dense kernels at one layer shape: forward,
// the two backward products, batch-1 selection, and the grouped forward
// over `groups` members.
func matProbes(batch, k, n, groups int, out map[string]float64) {
	rng := rand.New(rand.NewSource(4))
	fill := func(m *mat.Matrix) *mat.Matrix {
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
		return m
	}
	gflops := func(flops int, fn func()) float64 {
		return float64(flops) / (medianUs(probeWarm, probeCalls, fn) * 1e3)
	}
	x, w, g := fill(mat.New(batch, k)), fill(mat.New(k, n)), fill(mat.New(batch, n))
	y, dw, gin := mat.New(batch, n), mat.New(k, n), mat.New(batch, k)
	flops := 2 * batch * k * n
	out["mat.gemm_fwd_gflops"] = gflops(flops, func() { mat.Mul(y, x, w) })
	out["mat.gemm_bwd_gflops"] = gflops(2*flops, func() { mat.MulTransA(dw, x, g); mat.MulTransB(gin, g, w) })
	x1, y1 := fill(mat.New(1, k)), mat.New(1, n)
	out["mat.gemm_b1_gflops"] = gflops(2*k*n, func() { mat.Mul(y1, x1, w) })
	if groups > 1 {
		a, dst := fill(mat.New(groups*batch, k)), mat.New(groups*batch, n)
		gs := make([]mat.Group, groups)
		for i := range gs {
			gs[i] = mat.Group{Packed: mat.PackB(fill(mat.New(k, n))), Bias: make([]float64, n)}
		}
		out["mat.grouped_gflops"] = gflops(groups*flops, func() { mat.MulGroupedBiasAct(dst, a, batch, gs, mat.ActReLU) })
	}
}

// poolProbes times the pooled engine with `members` warm agents of the
// live configuration (freshly initialised weights, live states): one
// flush of queued selections, one flush of queued training transitions,
// and the flush a control interval makes (both queued).
func poolProbes(cfg bdq.AgentConfig, members int, sample stepSample, out map[string]float64) {
	trs := liveTransitions(cfg.Spec, sample)
	next := 0
	tr := func() replay.Transition { next++; return trs[next%len(trs)] }
	pool := bdq.NewAgentPool()
	pooled := make([]*bdq.PooledAgent, members)
	for i := range pooled {
		c := cfg
		c.Seed = int64(i + 1)
		pooled[i] = pool.Attach(bdq.NewAgent(c))
		for j := 0; j < 2*cfg.BatchSize; j++ {
			pooled[i].Observe(tr())
		}
	}
	defer func() {
		for _, p := range pooled {
			p.Close()
		}
	}()
	selectAll := func() {
		for _, p := range pooled {
			p.QueueSelect(trs[0].State, false)
		}
		pool.FlushStep()
		for _, p := range pooled {
			p.TakeActions()
		}
	}
	trainAll := func() {
		for _, p := range pooled {
			p.QueueObserve(tr())
		}
		pool.FlushStep()
		for _, p := range pooled {
			p.TakeLoss()
		}
	}
	m := float64(members)
	out["bdq.pool_select_us_per_agent"] = medianUs(probeWarm, probeCalls, selectAll) / m
	out["bdq.pool_train_us_per_agent"] = medianUs(min(5, probeWarm), probeCalls, trainAll) / m
	if _, live := out["bdq.pool_flush_us_p50"]; !live {
		out["bdq.pool_flush_us_p50"] = medianUs(min(5, probeWarm), probeCalls, func() {
			for _, p := range pooled {
				p.QueueObserve(tr())
				p.QueueSelect(trs[0].State, false)
			}
			pool.FlushStep()
			for _, p := range pooled {
				p.TakeLoss()
				p.TakeActions()
			}
		})
	}
}

// guardProbe times ctrl.Guard.Decide around a controller that costs
// nothing, on the sampled observations: what the guard itself adds.
func guardProbe(srv *sim.Server, sample stepSample, out map[string]float64) {
	if len(sample.res) == 0 {
		return
	}
	var tr ctrl.ObservationTracker
	obs := make([]ctrl.Observation, len(sample.res))
	for i, res := range sample.res {
		obs[i] = tr.Observe(srv, res)
	}
	inner := fixedController{asg: sample.asgs[0]}
	guard := ctrl.NewGuard(inner, ctrl.DefaultGuardConfig(srv.ManagedCores()))
	i := 0
	withGuard := nsPerCall(func() { guard.Decide(obs[i%len(obs)]); i++ })
	bare := nsPerCall(func() { inner.Decide(obs[i%len(obs)]); i++ })
	out["ctrl.guard_overhead_us"] = (withGuard - bare) / 1e3
}

type fixedController struct{ asg sim.Assignment }

func (fixedController) Name() string                             { return "fixed" }
func (c fixedController) Decide(ctrl.Observation) sim.Assignment { return c.asg }

// checkpointProbes times the container codec on the components a live
// checkpoint of the workload carries, and, when dir is set, the atomic
// write (fsync included) of one such container.
func checkpointProbes(comps []checkpoint.Checkpointable, dir string, out map[string]float64) error {
	calls := min(20, probeCalls) // each moves megabytes
	var data []byte
	out["checkpoint.marshal_ms"] = medianUs(min(2, probeWarm), calls, func() { data = checkpoint.Marshal(comps...) }) / 1e3
	if _, live := out["checkpoint.bytes"]; !live {
		out["checkpoint.bytes"] = float64(len(data))
	}
	var err error
	out["checkpoint.unmarshal_ms"] = medianUs(min(2, probeWarm), calls, func() {
		if e := checkpoint.Unmarshal(data, comps...); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil || dir == "" {
		return err
	}
	store, err := checkpoint.NewStore(filepath.Join(dir, "probe-store"), 2)
	if err != nil {
		return err
	}
	seq := uint64(0)
	out["checkpoint.save_ms"] = medianUs(min(2, probeWarm), calls, func() {
		seq++
		if e := store.Save(seq, data); e != nil {
			err = e
		}
	}) / 1e3
	os.RemoveAll(store.Dir())
	return err
}

// metricsProbes times one scrape of a live registry.
func metricsProbes(reg *metrics.Registry, out map[string]float64) {
	var scrape string
	out["metrics.render_us"] = medianUs(probeWarm, probeCalls, func() { scrape = reg.Render() })
	out["metrics.families"] = float64(strings.Count(scrape, "# TYPE "))
}

// trainStepsPerInterval derives the gradient steps a learner took per
// interval of its own life from its replay fill: its first decision
// stored nothing, and every stored transition past the warm-up threshold
// trained TrainPerStep times. (The daemon and the fleet rebuild their
// learners on membership changes, so a learner is younger than the run.)
func trainStepsPerInterval(replayLen int, cfg bdq.AgentConfig) float64 {
	warm := replayLen - cfg.WarmupSteps + 1
	if warm < 0 {
		warm = 0
	}
	return float64(warm*cfg.TrainPerStep) / float64(replayLen+1)
}

// defaultSimConfig is the paper platform with the program's measurement
// seed, as experiments.NewServer and daemon.New build it.
func defaultSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MeasurementSeed = programSeed
	return cfg
}
