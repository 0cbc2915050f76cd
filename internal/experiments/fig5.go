package experiments

import (
	"fmt"
	"strings"
)

// Fig5Cell is one (service, load, manager) measurement of Fig. 5.
type Fig5Cell struct {
	Service      string
	LoadFrac     float64
	Manager      string
	QoSGuarantee float64
	// EnergyNorm is energy normalised to the static mapping at the same
	// service and load, as in the figure.
	EnergyNorm float64
	AvgCores   float64
	AvgFreqGHz float64
	Migrations int
}

// Fig5Result reproduces Fig. 5: Twig-S vs Hipster, Heracles and static
// across fixed loads of 20%, 50% and 80%.
type Fig5Result struct{ grid[Fig5Cell] }

func (c Fig5Cell) manager() string        { return c.Manager }
func (c Fig5Cell) energyNorm() float64    { return c.EnergyNorm }
func (c Fig5Cell) qosSum() (float64, int) { return c.QoSGuarantee, 1 }

// Fig5Managers lists the single-service managers compared in Fig. 5.
var Fig5Managers = []string{"static", "heracles", "hipster", "twig-s"}

// Fig5 runs the comparison for the given services (Table II's four by
// default) at 20/50/80% load, each (service, load, manager) an
// independent cell of the grid it shares with Fig. 13.
func Fig5(services []string, sc Scale, seed int64) Fig5Result {
	total := sc.LearnS + sc.SummaryS
	cells, norm := runGrid(services, Fig5Managers, func(svc string, lf float64, mgr string) (Fig5Cell, float64) {
		srv := NewServer(seed, svc)
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(mgr, srv, sc, seed, svc),
			Patterns:     fixedLoads(lf, svc),
			Seconds:      total,
			SummaryFromS: sc.LearnS,
		})
		return Fig5Cell{
			Service:      svc,
			LoadFrac:     lf,
			Manager:      mgr,
			QoSGuarantee: sum.QoSGuarantee[0],
			AvgCores:     sum.AvgCores[0],
			AvgFreqGHz:   sum.AvgFreqGHz[0],
			Migrations:   sum.Migrations,
		}, sum.EnergyJ
	})
	for i, e := range norm {
		cells[i].EnergyNorm = e
	}
	return Fig5Result{grid[Fig5Cell]{Scale: sc.Name, Cells: cells}}
}

// String renders the figure as a table.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.5 (Twig-S vs baselines, %s scale)\n", r.Scale)
	fmt.Fprintf(&b, "  %-10s %5s %-9s %8s %9s %6s %6s %6s\n",
		"service", "load", "manager", "QoS", "energy/n", "cores", "GHz", "migr")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-10s %4.0f%% %-9s %7.1f%% %9.3f %6.1f %6.2f %6d\n",
			c.Service, c.LoadFrac*100, c.Manager, c.QoSGuarantee*100, c.EnergyNorm,
			c.AvgCores, c.AvgFreqGHz, c.Migrations)
	}
	for _, m := range Fig5Managers {
		fmt.Fprintf(&b, "  avg %-9s QoS %.1f%% energy %.3f\n", m, r.AvgQoS(m)*100, r.AvgEnergyNorm(m))
	}
	return b.String()
}
