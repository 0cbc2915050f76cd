package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/par"
)

// Fig8Target is one target service's with/without-transfer comparison.
type Fig8Target struct {
	Service string
	// Scratch and Transfer are per-bucket QoS-guarantee curves.
	Scratch  []float64
	Transfer []float64
	// BucketsTo80 counts buckets until the curve holds ≥80% QoS
	// (−1 = never). Transfer learning should cut this by ~1/3.
	ScratchTo80  int
	TransferTo80 int
	// MeanTardiness over the final window, with transfer (the paper
	// shows transfer reaches similar tardiness as learning from
	// scratch, i.e. it still minimises energy).
	ScratchTardiness  float64
	TransferTardiness float64
}

// Fig8Result reproduces Fig. 8: Twig-S transfer learning. The network is
// trained on Masstree, then its weights seed managers for Moses, Img-dnn
// and Xapian (each at 50% load) with the output layers re-initialised.
type Fig8Result struct {
	Donor   string
	BucketS int
	Targets []Fig8Target
}

// Fig8 runs the transfer-learning comparison.
func Fig8(sc Scale, seed int64) Fig8Result {
	const donor = "masstree"
	const lf = 0.5

	// Train the donor.
	donorSrv := NewServer(seed, donor)
	donorMgr := NewTwig(donorSrv, sc, seed, donor)
	Run(RunConfig{
		Server:       donorSrv,
		Controller:   donorMgr,
		Patterns:     fixedLoads(lf, donor),
		Seconds:      sc.LearnS,
		SummaryFromS: sc.LearnS - 1,
	})

	// One cell per (target, from scratch or with transfer).
	targets := []string{"moses", "img-dnn", "xapian"}
	type curveRun struct {
		curve     []float64
		to80      int
		tardiness float64
	}
	runs := make([]curveRun, 2*len(targets))
	par.For(len(runs), func(i int) {
		target := targets[i/2]
		srv := NewServer(seed+10, target)
		var mgr *core.Manager
		if i%2 == 0 {
			mgr = NewTwig(srv, sc, seed+1, target)
		} else {
			// With transfer: take the donor's weights (it is idle from
			// here on), re-init the output layers, restart ε at the mid
			// point ("retrain for a short interval").
			mgr = NewTwig(srv, sc, seed+2, target)
			mgr.CopyWeightsFrom(donorMgr)
			mgr.Transfer(sc.Epsilon.MidStep)
		}
		qb := newQoSBuckets(sc)
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   mgr,
			Patterns:     fixedLoads(lf, target),
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
			Hook:         qb.hook,
		})
		runs[i].curve, runs[i].to80 = qb.curve(0)
		runs[i].tardiness = sum.MeanTardiness[0]
	})

	res := Fig8Result{Donor: donor, BucketS: newQoSBuckets(sc).width}
	for ti, target := range targets {
		scratch, xfer := runs[2*ti], runs[2*ti+1]
		res.Targets = append(res.Targets, Fig8Target{
			Service:           target,
			Scratch:           scratch.curve,
			ScratchTo80:       scratch.to80,
			ScratchTardiness:  scratch.tardiness,
			Transfer:          xfer.curve,
			TransferTo80:      xfer.to80,
			TransferTardiness: xfer.tardiness,
		})
	}
	return res
}

// String renders the curves.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.8 Twig-S transfer learning from %s (buckets of %d s)\n", r.Donor, r.BucketS)
	for _, t := range r.Targets {
		fmt.Fprintf(&b, "  %-8s scratch :", t.Service)
		for _, v := range t.Scratch {
			fmt.Fprintf(&b, " %3.0f%%", v*100)
		}
		fmt.Fprintf(&b, "  (≥80%% at %d, tardiness %.2f)\n", t.ScratchTo80, t.ScratchTardiness)
		fmt.Fprintf(&b, "  %-8s transfer:", t.Service)
		for _, v := range t.Transfer {
			fmt.Fprintf(&b, " %3.0f%%", v*100)
		}
		fmt.Fprintf(&b, "  (≥80%% at %d, tardiness %.2f)\n", t.TransferTo80, t.TransferTardiness)
	}
	return b.String()
}
