package experiments

import (
	"slices"

	"github.com/twig-sched/twig/internal/par"
)

// gridCell is one cell of the grid Figs. 5 and 13 share: a group of
// services (one service, or a colocated pair) at one load under one
// manager.
type gridCell interface {
	manager() string
	energyNorm() float64
	// qosSum returns the sum of the group's per-service QoS guarantees
	// and the number of services.
	qosSum() (float64, int)
}

// grid is the (group × load × manager) grid of Figs. 5 and 13, its cells
// in that order, with the figures' per-manager "avg" rows.
type grid[C gridCell] struct {
	Scale string
	Cells []C
}

// gridLoads are the grid's low, mid and high load fractions.
var gridLoads = []float64{0.2, 0.5, 0.8}

// runGrid runs every (group, load, manager) cell as an independent run
// on par.For, each written to the slot fixed by its index. run returns a
// cell and its energy; the energies come back normalised to the static
// cell of the same (group, load), in a serial pass once all cells are in.
func runGrid[G any, C gridCell](groups []G, managers []string, run func(group G, lf float64, manager string) (C, float64)) ([]C, []float64) {
	perGroup := len(gridLoads) * len(managers)
	cells := make([]C, len(groups)*perGroup)
	energy := make([]float64, len(cells))
	par.For(len(cells), func(i int) {
		cells[i], energy[i] = run(groups[i/perGroup], gridLoads[i%perGroup/len(managers)], managers[i%len(managers)])
	})
	static := slices.Index(managers, "static")
	norm := make([]float64, len(energy))
	for i, e := range energy {
		norm[i] = e / energy[i-i%len(managers)+static]
	}
	return cells, norm
}

// AvgEnergyNorm returns one manager's mean normalised energy over the
// grid (the figures' rightmost "avg" bars).
func (g grid[C]) AvgEnergyNorm(manager string) float64 {
	return g.mean(manager, func(c C) (float64, int) { return c.energyNorm(), 1 })
}

// AvgQoS returns one manager's mean QoS guarantee over every service of
// every cell.
func (g grid[C]) AvgQoS(manager string) float64 {
	return g.mean(manager, func(c C) (float64, int) { return c.qosSum() })
}

// mean sums of over manager's cells and divides by the count it reports
// (0 for no cell).
func (g grid[C]) mean(manager string, of func(C) (float64, int)) float64 {
	var s float64
	n := 0
	for _, c := range g.Cells {
		if c.manager() == manager {
			v, k := of(c)
			s += v
			n += k
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
