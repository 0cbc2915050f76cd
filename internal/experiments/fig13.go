package experiments

import (
	"fmt"
	"strings"
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
type Fig13Result struct{ grid[Fig13Cell] }

func (c Fig13Cell) manager() string        { return c.Manager }
func (c Fig13Cell) energyNorm() float64    { return c.EnergyNorm }
func (c Fig13Cell) qosSum() (float64, int) { return c.QoSGuarantee[0] + c.QoSGuarantee[1], 2 }

// Fig13Managers lists the colocated managers compared.
var Fig13Managers = []string{"static", "parties", "twig-c"}

// Fig13 runs the comparison over the given pairs (all six Tailbench
// pairs in the paper; tests and benches may pass a subset), each
// (pair, load, manager) an independent cell of the grid it shares with
// Fig. 5.
func Fig13(pairs [][2]string, sc Scale, seed int64) Fig13Result {
	total := sc.LearnS + 2*sc.SummaryS // PARTIES summarised over 600 s
	cells, norm := runGrid(pairs, Fig13Managers, func(pair [2]string, lf float64, mgr string) (Fig13Cell, float64) {
		frac := PairMaxFraction(pair[0], pair[1])
		srv := NewServer(seed, pair[0], pair[1])
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(mgr, srv, sc, seed, pair[:]...),
			Patterns:     fixedLoads(lf*frac, pair[:]...),
			Seconds:      total,
			SummaryFromS: sc.LearnS,
		})
		return Fig13Cell{
			PairA: pair[0], PairB: pair[1],
			LoadFrac:     lf,
			Manager:      mgr,
			QoSGuarantee: [2]float64{sum.QoSGuarantee[0], sum.QoSGuarantee[1]},
			Migrations:   sum.Migrations,
		}, sum.EnergyJ
	})
	for i, e := range norm {
		cells[i].EnergyNorm = e
	}
	return Fig13Result{grid[Fig13Cell]{Scale: sc.Name, Cells: cells}}
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
