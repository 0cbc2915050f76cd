package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// Fig9Result reproduces Fig. 9: Twig-C transfer learning. The manager
// first learns with Moses + Masstree; then Moses is swapped for Xapian.
// With transfer the agent adapts "in under 10 time steps"; without it,
// QoS is low and energy high until re-learning completes.
type Fig9Result struct {
	BucketS int
	// Curves: per-bucket QoS guarantee of the swapped-in service
	// (Xapian) and of Masstree, with and without transfer.
	ScratchXapian    []float64
	TransferXapian   []float64
	ScratchMasstree  []float64
	TransferMasstree []float64
	// AvgPower over the run with and without transfer.
	ScratchPowerW  float64
	TransferPowerW float64
}

// Fig9 runs the colocated transfer comparison. Moses and Xapian run at
// 50% and Masstree at 20% of their colocated operable maxima.
func Fig9(sc Scale, seed int64) Fig9Result {
	frac := PairMaxFraction("moses", "masstree")
	mosesLoad := 0.5 * frac * service.MustLookup("moses").MaxLoadRPS
	massLoad := 0.2 * frac * service.MustLookup("masstree").MaxLoadRPS
	fracX := PairMaxFraction("xapian", "masstree")
	xapianLoad := 0.5 * fracX * service.MustLookup("xapian").MaxLoadRPS

	// Phase 1: learn Moses + Masstree.
	donorSrv := NewServer(seed, "moses", "masstree")
	donor := NewTwig(donorSrv, sc, seed, "moses", "masstree")
	Run(RunConfig{
		Server:       donorSrv,
		Controller:   donor,
		Patterns:     []loadgen.Pattern{loadgen.Fixed(mosesLoad), loadgen.Fixed(massLoad)},
		Seconds:      sc.LearnS,
		SummaryFromS: sc.LearnS - 1,
	})

	total := sc.LearnS + sc.SummaryS
	bucket := total / 12
	res := Fig9Result{BucketS: bucket}

	runPhase2 := func(mgr *core.Manager, srv *sim.Server) (xq, mq []float64, power float64) {
		met := [2][]int{}
		count := []int{}
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   mgr,
			Patterns:     []loadgen.Pattern{loadgen.Fixed(xapianLoad), loadgen.Fixed(massLoad)},
			Seconds:      total,
			SummaryFromS: sc.LearnS,
			Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
				bi := t / bucket
				for len(count) <= bi {
					count = append(count, 0)
					met[0] = append(met[0], 0)
					met[1] = append(met[1], 0)
				}
				count[bi]++
				for k := 0; k < 2; k++ {
					if r.Services[k].P99Ms <= r.Services[k].QoSTargetMs {
						met[k][bi]++
					}
				}
			},
		})
		for i := range count {
			xq = append(xq, float64(met[0][i])/float64(count[i]))
			mq = append(mq, float64(met[1][i])/float64(count[i]))
		}
		return xq, mq, sum.AvgPowerW
	}

	// Phase 2a: from scratch.
	srvA := NewServer(seed+20, "xapian", "masstree")
	scratch := NewTwig(srvA, sc, seed+3, "xapian", "masstree")
	res.ScratchXapian, res.ScratchMasstree, res.ScratchPowerW = runPhase2(scratch, srvA)

	// Phase 2b: with transfer.
	srvB := NewServer(seed+20, "xapian", "masstree")
	xfer := NewTwig(srvB, sc, seed+4, "xapian", "masstree")
	xfer.CopyWeightsFrom(donor)
	xfer.Transfer(sc.Epsilon.MidStep)
	res.TransferXapian, res.TransferMasstree, res.TransferPowerW = runPhase2(xfer, srvB)

	return res
}

// String renders the four curves.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.9 Twig-C transfer learning (moses+masstree → xapian+masstree, buckets of %d s)\n", r.BucketS)
	row := func(label string, vs []float64) {
		fmt.Fprintf(&b, "  %-18s:", label)
		for _, v := range vs {
			fmt.Fprintf(&b, " %3.0f%%", v*100)
		}
		b.WriteString("\n")
	}
	row("xapian scratch", r.ScratchXapian)
	row("xapian transfer", r.TransferXapian)
	row("masstree scratch", r.ScratchMasstree)
	row("masstree transfer", r.TransferMasstree)
	fmt.Fprintf(&b, "  avg power: scratch %.1f W, transfer %.1f W\n", r.ScratchPowerW, r.TransferPowerW)
	return b.String()
}
