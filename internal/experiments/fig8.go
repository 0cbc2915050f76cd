package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
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
		Patterns:     []loadgen.Pattern{loadgen.Fixed(lf * service.MustLookup(donor).MaxLoadRPS)},
		Seconds:      sc.LearnS,
		SummaryFromS: sc.LearnS - 1,
	})

	total := sc.LearnS + sc.SummaryS
	bucket := total / 12
	res := Fig8Result{Donor: donor, BucketS: bucket}
	for _, target := range []string{"moses", "img-dnn", "xapian"} {
		tt := Fig8Target{Service: target}
		load := lf * service.MustLookup(target).MaxLoadRPS

		runCurve := func(mgr *core.Manager, srv *sim.Server) ([]float64, int, float64) {
			met := []int{}
			count := []int{}
			sum := Run(RunConfig{
				Server:       srv,
				Controller:   mgr,
				Patterns:     []loadgen.Pattern{loadgen.Fixed(load)},
				Seconds:      total,
				SummaryFromS: sc.LearnS,
				Hook: func(t int, r sim.StepResult, asg sim.Assignment) {
					bi := t / bucket
					for len(met) <= bi {
						met = append(met, 0)
						count = append(count, 0)
					}
					count[bi]++
					if r.Services[0].P99Ms <= r.Services[0].QoSTargetMs {
						met[bi]++
					}
				},
			})
			curve := make([]float64, len(met))
			to80 := -1
			for i := range met {
				curve[i] = float64(met[i]) / float64(count[i])
				if to80 < 0 && curve[i] >= 0.8 {
					to80 = i
				}
			}
			return curve, to80, sum.MeanTardiness[0]
		}

		// From scratch.
		scratchSrv := NewServer(seed+10, target)
		scratch := NewTwig(scratchSrv, sc, seed+1, target)
		tt.Scratch, tt.ScratchTo80, tt.ScratchTardiness = runCurve(scratch, scratchSrv)

		// With transfer: take the donor's weights (it is idle from here
		// on), re-init the output layers, restart ε at the mid point
		// ("retrain for a short interval").
		xferSrv := NewServer(seed+10, target)
		xfer := NewTwig(xferSrv, sc, seed+2, target)
		xfer.CopyWeightsFrom(donorMgr)
		xfer.Transfer(sc.Epsilon.MidStep)
		tt.Transfer, tt.TransferTo80, tt.TransferTardiness = runCurve(xfer, xferSrv)

		res.Targets = append(res.Targets, tt)
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
