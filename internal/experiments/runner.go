// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the shared machinery to drive any controller
// against the simulated server and summarise QoS guarantee, QoS
// tardiness and energy usage — the metrics of Sec. V.
package experiments

import (
	"math"
	"slices"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
)

// RunConfig drives one controller against one simulated server.
type RunConfig struct {
	Server     *sim.Server
	Controller ctrl.Controller
	// Patterns supplies the offered load per service.
	Patterns []loadgen.Pattern
	// Seconds is the total run length; SummaryFromS is the first second
	// included in the summary (the paper summarises after the learning
	// phase).
	Seconds      int
	SummaryFromS int
	// Hook, when set, observes every interval (for trace figures).
	Hook func(t int, res sim.StepResult, asg sim.Assignment)

	// The remaining fields support crash-consistent resume. A fresh run
	// leaves them zero. To continue a run from checkpointed loop state,
	// set StartSecond to the first interval still to execute and Loop to
	// the restored interval kernel over Server and Controller
	// (LoopState.Configure does both). AfterInterval, when set, fires at
	// the end of every interval at the checkpoint-safe boundary: the
	// observation and last-valid assignment it receives — the loop's
	// carried state — together with the components' own state fully
	// determine interval t+1 onward.
	StartSecond   int
	Loop          *ctrl.Loop
	AfterInterval func(t int, obs ctrl.Observation, lastValid sim.Assignment)
}

// Summary aggregates a run, in the paper's metrics.
type Summary struct {
	Controller string
	Seconds    int
	// QoSGuarantee is, per service, the fraction of summarised samples
	// that met the QoS target.
	QoSGuarantee []float64
	// MeanTardiness and MaxTardiness describe QoS/target per service.
	MeanTardiness []float64
	MaxTardiness  []float64
	// Tardiness retains the raw per-interval tardiness samples (for
	// histograms such as Fig. 6's).
	Tardiness [][]float64
	// EnergyJ is the managed-socket energy over the summary window;
	// AvgPowerW the corresponding mean power.
	EnergyJ   float64
	AvgPowerW float64
	// Migrations counts per-service core-set changes over the summary
	// window (the oscillation metric).
	Migrations int
	// AvgCores and AvgFreqGHz describe the mean allocation per service.
	AvgCores   []float64
	AvgFreqGHz []float64
	// DecidePanics counts controller panics the loop recovered from;
	// StepErrors counts assignments the simulator rejected. In either
	// case the loop re-uses the last valid assignment instead of
	// aborting the run.
	DecidePanics int
	StepErrors   int
}

// nanTardiness is the tardiness recorded for an interval whose latency
// reading is missing (a crashed service or a dropped sample): the QoS
// target is counted as violated and the sample pinned at this penalty so
// means stay finite.
const nanTardiness = 10.0

// Run executes the control loop: every simulated second the controller
// receives the last interval's observation and decides the next
// interval's assignment.
func Run(cfg RunConfig) Summary {
	srv := cfg.Server
	k := srv.NumServices()
	if len(cfg.Patterns) != k {
		panic("experiments: one load pattern per service required")
	}
	if cfg.SummaryFromS >= cfg.Seconds {
		panic("experiments: empty summary window")
	}

	sum := Summary{
		Controller:    cfg.Controller.Name(),
		Seconds:       cfg.Seconds,
		QoSGuarantee:  make([]float64, k),
		MeanTardiness: make([]float64, k),
		MaxTardiness:  make([]float64, k),
		Tardiness:     make([][]float64, k),
		AvgCores:      make([]float64, k),
		AvgFreqGHz:    make([]float64, k),
	}

	loop := cfg.Loop
	if loop == nil {
		loop = ctrl.NewLoop(srv, cfg.Controller)
	}
	samples := 0
	// At the end of every interval prevAsg equals the accepted
	// assignment, so a resumed run's migration counting continues
	// exactly where the original left off.
	var prevAsg sim.Assignment
	if cfg.StartSecond > 0 {
		prevAsg = loop.LastValid()
	}

	loads := loop.Loads()
	for t := cfg.StartSecond; t < cfg.Seconds; t++ {
		for i, p := range cfg.Patterns {
			loads[i] = p.RPS(t)
		}
		res, out, err := loop.Actuate()
		if err != nil {
			panic(err) // lastValid was accepted before; cannot happen
		}
		if out&ctrl.DecidePanicked != 0 {
			sum.DecidePanics++
		}
		if out&ctrl.StepRejected != 0 {
			sum.StepErrors++
		}
		asg := loop.LastValid()
		if cfg.Hook != nil {
			cfg.Hook(t, res, asg)
		}

		inWindow := t >= cfg.SummaryFromS
		if inWindow {
			samples++
			sum.EnergyJ += res.EnergyJ
			sum.AvgPowerW += res.TruePowerW
			if prevAsg.PerService != nil {
				for i := range asg.PerService {
					if !slices.Equal(prevAsg.PerService[i].Cores, asg.PerService[i].Cores) {
						sum.Migrations++
					}
				}
			}
		}

		obs := loop.Observe(res)
		for i, sv := range res.Services {
			so := obs.Services[i]

			if inWindow {
				tard := so.Tardiness()
				if math.IsNaN(tard) || math.IsInf(tard, 0) || tard > nanTardiness {
					tard = nanTardiness
				}
				sum.Tardiness[i] = append(sum.Tardiness[i], tard)
				sum.MeanTardiness[i] += tard
				if tard > sum.MaxTardiness[i] {
					sum.MaxTardiness[i] = tard
				}
				if so.QoSMet() {
					sum.QoSGuarantee[i]++
				}
				sum.AvgCores[i] += float64(sv.NumCores)
				sum.AvgFreqGHz[i] += sv.FreqGHz
			}
		}
		prevAsg = asg
		if cfg.AfterInterval != nil {
			cfg.AfterInterval(t, obs, asg)
		}
	}

	if samples > 0 {
		n := float64(samples)
		sum.AvgPowerW /= n
		for i := 0; i < k; i++ {
			sum.QoSGuarantee[i] /= n
			sum.MeanTardiness[i] /= n
			sum.AvgCores[i] /= n
			sum.AvgFreqGHz[i] /= n
		}
	}
	return sum
}
