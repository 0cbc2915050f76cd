package core

import (
	"fmt"
	"sort"

	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// Request is one service's resource request from the learning agent.
type Request struct {
	Cores   int
	FreqGHz float64
	// CacheWays is the optional CAT partition request (0 = unmanaged).
	CacheWays int
}

// Mapper implements the mapper module of Sec. III-B3: it turns per-
// service (core count, DVFS) requests into concrete core assignments. It
// (1) prioritises core ordering for cache locality by spreading each
// service over its own socket region with stride-2 placement, (2) sets
// the DVFS state of allocated cores, (3) drops the remaining cores to
// the lowest DVFS state, and (4) arbitrates conflicting requests by
// time-sharing the overlapping cores at the highest requested DVFS
// state (Sec. IV, Resource Arbitration).
type Mapper struct {
	cores []int // managed core IDs, ascending
}

// NewMapper creates a mapper over the given managed cores.
func NewMapper(managedCores []int) *Mapper {
	if len(managedCores) == 0 {
		panic("core: mapper needs at least one core")
	}
	cp := append([]int(nil), managedCores...)
	sort.Ints(cp)
	return &Mapper{cores: cp}
}

// NumCores returns the number of managed cores.
func (m *Mapper) NumCores() int { return len(m.cores) }

// Map produces the next interval's assignment from the per-service
// requests, in two allocations: the PerService slice and one array
// that every service's Cores is a sub-slice of. Each sub-slice's
// capacity ends at its own length, so a holder that appends to one
// service's cores gets a new array instead of writing over the next
// service's; the assignment is the caller's to keep.
func (m *Mapper) Map(reqs []Request) sim.Assignment {
	n := len(m.cores)
	total := 0
	for i, r := range reqs {
		if r.Cores < 1 || r.Cores > n {
			panic(fmt.Sprintf("core: request %d wants %d of %d cores", i, r.Cores, n))
		}
		total += r.Cores
	}
	asg := sim.Assignment{
		PerService:  make([]sim.Allocation, len(reqs)),
		IdleFreqGHz: platform.MinFreqGHz,
	}
	cores := make([]int, total)
	for i, r := range reqs {
		asg.PerService[i] = sim.Allocation{Cores: cores[:r.Cores:r.Cores], FreqGHz: r.FreqGHz, CacheWays: r.CacheWays}
		cores = cores[r.Cores:]
	}
	if total <= n {
		m.mapDisjoint(reqs, total, asg.PerService)
	} else {
		m.mapShared(reqs, asg.PerService)
	}
	return asg
}

// mapDisjoint places each service in its own region of the socket with
// stride-2 ordering inside the region to improve cache locality, as in
// the paper's example (sv-1 on cores 0,2,4 and sv-2 on 10,12,14,16). It
// fills each allocation's Cores, sized to its request.
func (m *Mapper) mapDisjoint(reqs []Request, total int, per []sim.Allocation) {
	n := len(m.cores)
	k := len(reqs)
	// Region boundaries: proportional to request sizes so large
	// requests get large regions, with every region at least as big as
	// its request (total ≤ n guarantees feasibility).
	start := 0
	for i, r := range reqs {
		size := r.Cores + (n-total)*r.Cores/max(total, 1)
		if i == k-1 || start+size > n {
			size = n - start
		}
		pickStride2(per[i].Cores, m.cores[start:start+size])
		start += size
	}
}

// pickStride2 fills out with len(out) cores of region, preferring every
// other core (0, 2, 4, …) and filling in the odd positions only when
// needed, in ascending order. region holds at least len(out) cores.
func pickStride2(out, region []int) {
	j := 0
	for i := 0; i < len(region) && j < len(out); i += 2 {
		out[j] = region[i]
		j++
	}
	for i := 1; i < len(region) && j < len(out); i += 2 {
		out[j] = region[i]
		j++
	}
	sort.Ints(out)
}

// mapShared arbitrates an over-committed request set: services are laid
// out consecutively on a ring of cores, so the overflow wraps around and
// overlapping cores are time-shared. The platform runs each shared core
// at the highest DVFS state among its owners' requests (Sec. IV,
// Resource Arbitration). It fills each allocation's Cores, sized to its
// request.
func (m *Mapper) mapShared(reqs []Request, per []sim.Allocation) {
	n := len(m.cores)
	pos := 0
	for i, r := range reqs {
		ids := per[i].Cores
		for j := range ids {
			ids[j] = m.cores[(pos+j)%n]
		}
		sort.Ints(ids)
		pos = (pos + r.Cores) % n
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
