package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/sim/loadgen"
	"github.com/twig-sched/twig/internal/sim/service"
)

// AblationCell is one variant's outcome on the standard Twig-S workload
// (Masstree at 50% load).
type AblationCell struct {
	Variant      string
	QoSGuarantee float64
	AvgPowerW    float64
	Migrations   int
}

// AblationResult compares design-choice variants called out in
// DESIGN.md ("Learning-design decisions and extensions"):
// prioritised vs uniform replay, the η smoothing window,
// the θ power-reward weight, and the per-branch vs mean TD target.
type AblationResult struct {
	Name  string
	Cells []AblationCell
}

// ablationVariant names one config mutation of an ablation study.
type ablationVariant struct {
	Label  string
	Mutate func(*core.Config)
}

// runAblationVariants runs every variant as an independent cell on the
// experiments worker pool; each writes to its own slot so results are
// byte-identical to a serial sweep.
func runAblationVariants(sc Scale, seed int64, vs []ablationVariant) []AblationCell {
	cells := make([]AblationCell, len(vs))
	forEachCell(len(vs), func(i int) {
		cells[i] = runAblationVariant(sc, seed, vs[i].Label, vs[i].Mutate)
	})
	return cells
}

// runAblationVariant runs Twig-S with a config mutator applied.
func runAblationVariant(sc Scale, seed int64, variant string, mutate func(*core.Config)) AblationCell {
	const svcName = "masstree"
	prof := service.MustLookup(svcName)
	srv := NewServer(seed, svcName)
	cfg := twigConfig(srv, sc, seed, svcName)
	mutate(&cfg)
	mgr := core.NewManager(cfg, srv.ManagedCores())
	sum := Run(RunConfig{
		Server:       srv,
		Controller:   mgr,
		Patterns:     []loadgen.Pattern{loadgen.Fixed(0.5 * prof.MaxLoadRPS)},
		Seconds:      sc.LearnS + sc.SummaryS,
		SummaryFromS: sc.LearnS,
	})
	return AblationCell{
		Variant:      variant,
		QoSGuarantee: sum.QoSGuarantee[0],
		AvgPowerW:    sum.AvgPowerW,
		Migrations:   sum.Migrations,
	}
}

// AblationReplay compares prioritised vs uniform experience replay.
func AblationReplay(sc Scale, seed int64) AblationResult {
	return AblationResult{
		Name: "prioritised vs uniform replay",
		Cells: runAblationVariants(sc, seed, []ablationVariant{
			{"PER", func(c *core.Config) {}},
			{"uniform", func(c *core.Config) { c.Agent.UsePER = false }},
		}),
	}
}

// AblationEta compares the PMC smoothing window η ∈ {1, 5, 10}. The
// paper found η = 5 best.
func AblationEta(sc Scale, seed int64) AblationResult {
	var vs []ablationVariant
	for _, eta := range []int{1, 5, 10} {
		e := eta
		vs = append(vs, ablationVariant{
			fmt.Sprintf("eta=%d", e), func(c *core.Config) { c.Eta = e }})
	}
	return AblationResult{Name: "PMC smoothing window η", Cells: runAblationVariants(sc, seed, vs)}
}

// AblationReward compares the power-reward weight θ ∈ {0, 0.5, 2}. With
// θ = 0 Twig has no incentive to save energy; with a large θ it risks
// QoS.
func AblationReward(sc Scale, seed int64) AblationResult {
	var vs []ablationVariant
	for _, theta := range []float64{0, 0.5, 2} {
		th := theta
		vs = append(vs, ablationVariant{
			fmt.Sprintf("theta=%.1f", th), func(c *core.Config) { c.Reward.Theta = th }})
	}
	return AblationResult{Name: "power-reward weight θ", Cells: runAblationVariants(sc, seed, vs)}
}

// AblationMultiAgentValue ablates the paper's multi-agent contribution:
// Twig-C on a colocated pair with per-agent state-value streams
// (Sec. III-A) versus a single value stream shared by both agents.
func AblationMultiAgentValue(sc Scale, seed int64) AblationResult {
	frac := PairMaxFraction("masstree", "moses")
	loads := []loadgen.Pattern{
		loadgen.Fixed(0.5 * frac * service.MustLookup("masstree").MaxLoadRPS),
		loadgen.Fixed(0.5 * frac * service.MustLookup("moses").MaxLoadRPS),
	}
	run := func(shared bool, label string) AblationCell {
		srv := NewServer(seed, "masstree", "moses")
		cfg := twigConfig(srv, sc, seed, "masstree", "moses")
		cfg.Agent.Spec.SharedValue = shared
		mgr := core.NewManager(cfg, srv.ManagedCores())
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   mgr,
			Patterns:     loads,
			Seconds:      sc.LearnS + sc.SummaryS,
			SummaryFromS: sc.LearnS,
		})
		return AblationCell{
			Variant:      label,
			QoSGuarantee: (sum.QoSGuarantee[0] + sum.QoSGuarantee[1]) / 2,
			AvgPowerW:    sum.AvgPowerW,
			Migrations:   sum.Migrations,
		}
	}
	variants := []struct {
		shared bool
		label  string
	}{
		{false, "per-agent V"},
		{true, "shared V"},
	}
	cells := make([]AblationCell, len(variants))
	forEachCell(len(variants), func(i int) {
		cells[i] = run(variants[i].shared, variants[i].label)
	})
	return AblationResult{
		Name:  "per-agent vs shared state value (Twig-C)",
		Cells: cells,
	}
}

// AblationTargetMode compares the mean-across-branches TD target (the
// BDQ paper's recommendation, Twig's default) with per-branch targets.
func AblationTargetMode(sc Scale, seed int64) AblationResult {
	return AblationResult{
		Name: "TD target aggregation",
		Cells: runAblationVariants(sc, seed, []ablationVariant{
			{"mean-branches", func(c *core.Config) {
				c.Agent.TargetMode = bdq.TargetMeanBranches
			}},
			{"per-branch", func(c *core.Config) {
				c.Agent.TargetMode = bdq.TargetPerBranch
			}},
		}),
	}
}

// String renders the variant table.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s (masstree @ 50%%)\n", r.Name)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-14s QoS %6.1f%%  power %6.1f W  %d migrations\n",
			c.Variant, c.QoSGuarantee*100, c.AvgPowerW, c.Migrations)
	}
	return b.String()
}
