package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Fig11Result reproduces Fig. 11: Twig-C under dynamic load variation —
// Moses' load climbs from 20% to 100% of its colocated operable maximum
// while Masstree holds 20%. The trace shows Twig-C jumping directly to
// the right core configuration and preferring finer DVFS adaptations.
type Fig11Result struct {
	PeriodS      int
	QoSGuarantee []float64
	EnergyJ      float64
	Migrations   int
	// Per load step: Moses' load and each service's allocation.
	MosesLoadRPS  []float64
	MosesCores    []int
	MosesFreq     []float64
	MasstreeCores []int
	MasstreeFreq  []float64
}

// Fig11 runs the Twig-C varying-load trace. (The paper omits PARTIES
// from this plot for legibility; Fig. 12 carries that comparison.)
func Fig11(sc Scale, seed int64) Fig11Result {
	frac := PairMaxFraction("moses", "masstree")
	moses := service.MustLookup("moses")
	mass := service.MustLookup("masstree")
	period := ladderPeriod(sc)
	gen := loadgen.NewStepWise(0.2*frac*moses.MaxLoadRPS, frac*moses.MaxLoadRPS, 0.2, period)
	total := sc.LearnS + sc.SummaryS*3

	srv := NewServer(seed, "moses", "masstree")
	mgr := NewTwig(srv, sc, seed, "moses", "masstree")
	res := Fig11Result{PeriodS: period}
	sum := Run(RunConfig{
		Server:     srv,
		Controller: mgr,
		Patterns: []loadgen.Pattern{
			gen,
			loadgen.Fixed(0.2 * frac * mass.MaxLoadRPS),
		},
		Seconds:      total,
		SummaryFromS: sc.LearnS,
		Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
			if t >= sc.LearnS && t%period == period/2 {
				res.MosesLoadRPS = append(res.MosesLoadRPS, r.Services[0].OfferedRPS)
				res.MosesCores = append(res.MosesCores, r.Services[0].NumCores)
				res.MosesFreq = append(res.MosesFreq, r.Services[0].FreqGHz)
				res.MasstreeCores = append(res.MasstreeCores, r.Services[1].NumCores)
				res.MasstreeFreq = append(res.MasstreeFreq, r.Services[1].FreqGHz)
			}
		},
	})
	res.QoSGuarantee = sum.QoSGuarantee
	res.EnergyJ = sum.EnergyJ
	res.Migrations = sum.Migrations
	return res
}

// String renders the allocation trace.
func (r Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.11 Twig-C with varying Moses load (period %d s): QoS moses %.1f%%, masstree %.1f%%, %d migrations\n",
		r.PeriodS, r.QoSGuarantee[0]*100, r.QoSGuarantee[1]*100, r.Migrations)
	b.WriteString("  moses load → moses alloc | masstree alloc\n")
	for i := range r.MosesLoadRPS {
		fmt.Fprintf(&b, "    %6.0f rps → %2dc@%.1f | %2dc@%.1f\n",
			r.MosesLoadRPS[i], r.MosesCores[i], r.MosesFreq[i], r.MasstreeCores[i], r.MasstreeFreq[i])
	}
	return b.String()
}
