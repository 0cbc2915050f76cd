package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/par"
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

	// Phase 2, from scratch (cell 0) and with transfer (cell 1).
	type phase2 struct {
		xapian, masstree []float64
		powerW           float64
	}
	var runs [2]phase2
	par.For(len(runs), func(i int) {
		srv := NewServer(seed+20, "xapian", "masstree")
		var mgr *core.Manager
		if i == 0 {
			mgr = NewTwig(srv, sc, seed+3, "xapian", "masstree")
		} else {
			mgr = NewTwig(srv, sc, seed+4, "xapian", "masstree")
			mgr.CopyWeightsFrom(donor)
			mgr.Transfer(sc.Epsilon.MidStep)
		}
		qb := newQoSBuckets(sc)
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   mgr,
			Patterns:     []loadgen.Pattern{loadgen.Fixed(xapianLoad), loadgen.Fixed(massLoad)},
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
			Hook:         qb.hook,
		})
		runs[i].xapian, _ = qb.curve(0)
		runs[i].masstree, _ = qb.curve(1)
		runs[i].powerW = sum.AvgPowerW
	})
	return Fig9Result{
		BucketS:          newQoSBuckets(sc).width,
		ScratchXapian:    runs[0].xapian,
		TransferXapian:   runs[1].xapian,
		ScratchMasstree:  runs[0].masstree,
		TransferMasstree: runs[1].masstree,
		ScratchPowerW:    runs[0].powerW,
		TransferPowerW:   runs[1].powerW,
	}
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
