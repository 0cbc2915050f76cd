package experiments

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/par"
)

// Fig13Cell is one (pair, load, manager) measurement.
type Fig13Cell struct {
	PairA, PairB string
	LoadFrac     float64
	Manager      string
	QoSGuarantee [2]float64
	EnergyNorm   float64 // normalised to static at the same pair/load
	Migrations   int
}

// Fig13Result reproduces Fig. 13: Twig-C vs PARTIES vs static across
// service pairs at low (20%), mid (50%) and high (80%) fractions of the
// pair's colocated operable maximum.
type Fig13Result struct {
	Scale string
	Cells []Fig13Cell
}

// Fig13Managers lists the colocated managers compared.
var Fig13Managers = []string{"static", "parties", "twig-c"}

// Fig13 runs the comparison over the given pairs (all six Tailbench
// pairs in the paper; tests and benches may pass a subset). Cells fan
// out over the experiments worker pool like Fig5, with the same
// byte-identical-to-serial guarantee; normalisation against the static
// cell of each (pair, load) group is a serial post-pass.
func Fig13(pairs [][2]string, sc Scale, seed int64) Fig13Result {
	type job struct {
		pair [2]string
		lf   float64
		mgr  string
	}
	var jobs []job
	for _, pair := range pairs {
		for _, lf := range []float64{0.2, 0.5, 0.8} {
			for _, mgr := range Fig13Managers {
				jobs = append(jobs, job{pair, lf, mgr})
			}
		}
	}
	total := sc.LearnS + 2*sc.SummaryS // PARTIES summarised over 600 s
	cells := make([]Fig13Cell, len(jobs))
	energy := make([]float64, len(jobs))
	par.For(len(jobs), Parallelism(), func(i int) {
		j := jobs[i]
		frac := PairMaxFraction(j.pair[0], j.pair[1])
		srv := NewServer(seed, j.pair[0], j.pair[1])
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(j.mgr, srv, sc, seed, j.pair[:]...),
			Patterns:     fixedLoads(j.lf*frac, j.pair[:]...),
			Seconds:      total,
			SummaryFromS: sc.LearnS,
		})
		energy[i] = sum.EnergyJ
		cells[i] = Fig13Cell{
			PairA: j.pair[0], PairB: j.pair[1],
			LoadFrac:     j.lf,
			Manager:      j.mgr,
			QoSGuarantee: [2]float64{sum.QoSGuarantee[0], sum.QoSGuarantee[1]},
			Migrations:   sum.Migrations,
		}
	})
	for i, e := range perStatic(energy, Fig13Managers) {
		cells[i].EnergyNorm = e
	}
	return Fig13Result{Scale: sc.Name, Cells: cells}
}

// AvgEnergyNorm averages one manager's normalised energy over all cells.
func (r Fig13Result) AvgEnergyNorm(manager string) float64 {
	var s float64
	n := 0
	for _, c := range r.Cells {
		if c.Manager == manager {
			s += c.EnergyNorm
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// AvgQoS averages one manager's QoS guarantee over all cells/services.
func (r Fig13Result) AvgQoS(manager string) float64 {
	var s float64
	n := 0
	for _, c := range r.Cells {
		if c.Manager == manager {
			s += c.QoSGuarantee[0] + c.QoSGuarantee[1]
			n += 2
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// String renders the table.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.13 (Twig-C vs PARTIES vs static, %s scale)\n", r.Scale)
	fmt.Fprintf(&b, "  %-20s %5s %-8s %7s %7s %9s %6s\n", "pair", "load", "manager", "QoS-a", "QoS-b", "energy/n", "migr")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-20s %4.0f%% %-8s %6.1f%% %6.1f%% %9.3f %6d\n",
			c.PairA+"+"+c.PairB, c.LoadFrac*100, c.Manager,
			c.QoSGuarantee[0]*100, c.QoSGuarantee[1]*100, c.EnergyNorm, c.Migrations)
	}
	for _, m := range Fig13Managers {
		fmt.Fprintf(&b, "  avg %-8s QoS %.1f%% energy %.3f\n", m, r.AvgQoS(m)*100, r.AvgEnergyNorm(m))
	}
	return b.String()
}
