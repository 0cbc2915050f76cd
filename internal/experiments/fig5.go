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
type Fig5Result struct {
	Scale string
	Cells []Fig5Cell
}

// Fig5Managers lists the single-service managers compared in Fig. 5.
var Fig5Managers = []string{"static", "heracles", "hipster", "twig-s"}

// Fig5 runs the comparison for the given services (Table II's four by
// default) at 20/50/80% load. Independent (service, load, manager) cells
// fan out over the experiments worker pool (SetParallelism); each cell
// owns its server and controller and writes to its own result slot, so
// the outcome is byte-identical to a serial run. Energy normalisation
// against the static cell of the same (service, load) group happens in a
// serial post-pass once all cells are in.
func Fig5(services []string, sc Scale, seed int64) Fig5Result {
	// QoS calibration is cached per service; warm the cache serially so
	// concurrent cells don't calibrate the same service twice.
	for _, svcName := range services {
		QoSTarget(svcName)
	}
	type job struct {
		svc string
		lf  float64
		mgr string
	}
	var jobs []job
	for _, svcName := range services {
		for _, lf := range []float64{0.2, 0.5, 0.8} {
			for _, mgr := range Fig5Managers {
				jobs = append(jobs, job{svcName, lf, mgr})
			}
		}
	}
	total := sc.LearnS + sc.SummaryS
	cells := make([]Fig5Cell, len(jobs))
	energy := make([]float64, len(jobs))
	forEachCell(len(jobs), func(i int) {
		j := jobs[i]
		srv := NewServer(seed, j.svc)
		sum := Run(RunConfig{
			Server:       srv,
			Controller:   newController(j.mgr, srv, sc, seed, j.svc),
			Patterns:     fixedLoads(j.lf, j.svc),
			Seconds:      total,
			SummaryFromS: sc.LearnS,
		})
		energy[i] = sum.EnergyJ
		cells[i] = Fig5Cell{
			Service:      j.svc,
			LoadFrac:     j.lf,
			Manager:      j.mgr,
			QoSGuarantee: sum.QoSGuarantee[0],
			AvgCores:     sum.AvgCores[0],
			AvgFreqGHz:   sum.AvgFreqGHz[0],
			Migrations:   sum.Migrations,
		}
	})
	for i, e := range perStatic(energy, Fig5Managers) {
		cells[i].EnergyNorm = e
	}
	return Fig5Result{Scale: sc.Name, Cells: cells}
}

// AvgEnergyNorm returns the mean normalised energy of one manager across
// all cells (the figure's rightmost "avg" bars).
func (r Fig5Result) AvgEnergyNorm(manager string) float64 {
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

// AvgQoS returns the mean QoS guarantee of one manager across all cells.
func (r Fig5Result) AvgQoS(manager string) float64 {
	var s float64
	n := 0
	for _, c := range r.Cells {
		if c.Manager == manager {
			s += c.QoSGuarantee
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
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
