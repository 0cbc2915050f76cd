package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/bdq"
	"github.com/twig-sched/twig/internal/core"
	"github.com/twig-sched/twig/internal/par"
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

// runTwigVariant runs Twig on names with mutate applied to its
// configuration, each service at frac of its maximum load (of the
// pair's colocated maximum for two services), over the scale's learning
// and evaluation window.
func runTwigVariant(sc Scale, seed int64, names []string, frac float64, mutate func(*core.Config)) Summary {
	if len(names) == 2 {
		frac *= PairMaxFraction(names[0], names[1])
	}
	srv := NewServer(seed, names...)
	cfg := twigConfig(srv, sc, seed, names...)
	mutate(&cfg)
	return Run(RunConfig{
		Server:       srv,
		Controller:   core.NewManager(cfg, srv.ManagedCores()),
		Patterns:     fixedLoads(frac, names...),
		Seconds:      sc.LearnS + sc.SummaryS,
		SummaryFromS: sc.LearnS,
	})
}

// runAblationVariants runs every variant on names at half load as an
// independent cell on par.For; each writes to its own slot so results
// are byte-identical to a serial sweep. A cell's QoS guarantee is the
// mean over the services.
func runAblationVariants(sc Scale, seed int64, names []string, vs []ablationVariant) []AblationCell {
	cells := make([]AblationCell, len(vs))
	par.For(len(vs), func(i int) {
		sum := runTwigVariant(sc, seed, names, 0.5, vs[i].Mutate)
		q, _ := meanMin(sum.QoSGuarantee)
		cells[i] = AblationCell{Variant: vs[i].Label, QoSGuarantee: q, AvgPowerW: sum.AvgPowerW, Migrations: sum.Migrations}
	})
	return cells
}

// AblationReplay compares prioritised vs uniform experience replay.
func AblationReplay(sc Scale, seed int64) AblationResult {
	return AblationResult{
		Name: "prioritised vs uniform replay",
		Cells: runAblationVariants(sc, seed, []string{"masstree"}, []ablationVariant{
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
	return AblationResult{Name: "PMC smoothing window η", Cells: runAblationVariants(sc, seed, []string{"masstree"}, vs)}
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
	return AblationResult{Name: "power-reward weight θ", Cells: runAblationVariants(sc, seed, []string{"masstree"}, vs)}
}

// AblationMultiAgentValue ablates the paper's multi-agent contribution:
// Twig-C on a colocated pair with per-agent state-value streams
// (Sec. III-A) versus a single value stream shared by both agents.
func AblationMultiAgentValue(sc Scale, seed int64) AblationResult {
	return AblationResult{
		Name: "per-agent vs shared state value (Twig-C)",
		Cells: runAblationVariants(sc, seed, []string{"masstree", "moses"}, []ablationVariant{
			{"per-agent V", func(c *core.Config) { c.Agent.Spec.SharedValue = false }},
			{"shared V", func(c *core.Config) { c.Agent.Spec.SharedValue = true }},
		}),
	}
}

// AblationTargetMode compares the mean-across-branches TD target (the
// BDQ paper's recommendation, Twig's default) with per-branch targets.
func AblationTargetMode(sc Scale, seed int64) AblationResult {
	return AblationResult{
		Name: "TD target aggregation",
		Cells: runAblationVariants(sc, seed, []string{"masstree"}, []ablationVariant{
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
