package baselines

import (
	"sort"

	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
	"github.com/twig-sched/twig/internal/sim/platform"
)

// PartiesConfig holds the controller parameters from the paper's
// description (Sec. V-A): a 2 s decision period, upsizing when a service
// reaches 95% of its target, and reclaiming resources from the service
// with the highest slack otherwise.
type PartiesConfig struct {
	PeriodS       int
	UpsizeThresh  float64 // act when tardiness ≥ this
	ReclaimThresh float64 // only reclaim from services below this
	// RevertHoldS is how long a reverted resource stays off-limits for
	// reclaiming ("adjusts another resource next time").
	RevertHoldS int
	Seed        int64
}

// DefaultPartiesConfig returns the published parameters.
func DefaultPartiesConfig() PartiesConfig {
	return PartiesConfig{PeriodS: 2, UpsizeThresh: 0.95, ReclaimThresh: 0.60, RevertHoldS: 120}
}

// partiesResource enumerates the resources PARTIES adjusts one at a
// time. Intel CAT is unavailable on the evaluation platform (as in the
// paper), leaving core count and DVFS.
type partiesResource int

const (
	resCores partiesResource = iota
	resDVFS
	numResources
)

// partiesAction remembers the last adjustment for the revert logic.
type partiesAction struct {
	valid    bool
	svc      int
	resource partiesResource
	delta    int // applied change (negative = reclaim)
	// migrated marks a core moved straight from svc to service to
	// rather than into the free pool; a revert must take it back.
	migrated bool
	to       int
}

// Parties is the incremental resource controller of Chen et al.
// (ASPLOS'19): every period it either upsizes the service closest to its
// target or reclaims one resource unit from the service with the most
// slack, reverting an adjustment that caused a violation and switching
// to another resource next time.
type Parties struct {
	cfg   PartiesConfig
	cores []int

	alloc     []int // per-service core count
	freqStep  []int // per-service DVFS step
	nextRes   []partiesResource
	blocked   [][]int // blocked[svc][res] = step until which reclaiming is barred
	last      partiesAction
	step      int
	decisions int
}

// NewParties builds the controller for k services over the managed
// cores, starting from an even split at the highest DVFS setting.
func NewParties(cfg PartiesConfig, managedCores []int, k int) *Parties {
	if k <= 0 {
		panic("baselines: parties needs at least one service")
	}
	if cfg.PeriodS <= 0 {
		cfg.PeriodS = 2
	}
	cp := append([]int(nil), managedCores...)
	sort.Ints(cp)
	p := &Parties{cfg: cfg, cores: cp}
	p.alloc = make([]int, k)
	p.freqStep = make([]int, k)
	p.nextRes = make([]partiesResource, k)
	p.blocked = make([][]int, k)
	for i := 0; i < k; i++ {
		p.alloc[i] = len(cp) / k
		p.freqStep[i] = platform.NumFreqSteps - 1
		p.blocked[i] = make([]int, numResources)
	}
	return p
}

// Name implements ctrl.Controller.
func (p *Parties) Name() string { return "parties" }

// Decisions returns the number of resource adjustments made (the
// ping-pong metric discussed in Sec. V-B2).
func (p *Parties) Decisions() int { return p.decisions }

// Decide implements ctrl.Controller.
func (p *Parties) Decide(obs ctrl.Observation) sim.Assignment {
	t := p.step
	p.step++
	if t%p.cfg.PeriodS == 0 {
		p.adjust(obs)
	}
	return p.assignment()
}

func (p *Parties) adjust(obs ctrl.Observation) {
	k := len(p.alloc)
	// Revert logic: if the last adjustment was a reclaim and that
	// service now violates, undo it and rotate to the other resource.
	if p.last.valid && p.last.delta < 0 {
		s := obs.Services[p.last.svc]
		if !s.QoSMet() {
			p.apply(p.last.svc, p.last.resource, -p.last.delta)
			if p.last.migrated {
				p.alloc[p.last.to]--
			}
			p.nextRes[p.last.svc] = (p.last.resource + 1) % numResources
			// Bar this resource from reclaiming for a while so the
			// controller does not immediately re-probe the violation.
			p.blocked[p.last.svc][p.last.resource] = p.step + p.cfg.RevertHoldS
			p.last = partiesAction{}
			return
		}
	}
	p.last = partiesAction{}

	// Find the services closest to and furthest from their targets.
	worst, best := -1, -1
	for i := 0; i < k; i++ {
		ti := obs.Services[i].Tardiness()
		if worst < 0 || ti > obs.Services[worst].Tardiness() {
			worst = i
		}
		if best < 0 || ti < obs.Services[best].Tardiness() {
			best = i
		}
	}

	if obs.Services[worst].Tardiness() >= p.cfg.UpsizeThresh {
		// Upsize one resource of the most pressured service. When the
		// core pool is empty, migrate a core from the service with the
		// most slack instead (PARTIES shifts resources between
		// services, not only from a free pool).
		res := p.nextRes[worst]
		if !p.canGrow(worst, res) {
			res = (res + 1) % numResources
		}
		switch {
		case p.canGrow(worst, res):
			p.apply(worst, res, +1)
			p.decisions++
			p.last = partiesAction{valid: true, svc: worst, resource: res, delta: +1}
			p.nextRes[worst] = (res + 1) % numResources
		case best != worst && p.alloc[best] > 1 &&
			obs.Services[best].Tardiness() < p.cfg.ReclaimThresh:
			p.alloc[best]--
			p.alloc[worst]++
			p.decisions++
			p.last = partiesAction{valid: true, svc: best, resource: resCores, delta: -1, migrated: true, to: worst}
		}
		return
	}

	// Everyone comfortable: reclaim from the service with the most
	// slack, one resource unit at a time.
	if obs.Services[best].Tardiness() < p.cfg.ReclaimThresh {
		res := p.nextRes[best]
		if !p.canReclaim(best, res) {
			res = (res + 1) % numResources
		}
		if p.canReclaim(best, res) {
			p.apply(best, res, -1)
			p.decisions++
			p.last = partiesAction{valid: true, svc: best, resource: res, delta: -1}
			p.nextRes[best] = (res + 1) % numResources
		}
	}
}

func (p *Parties) freeCores() int {
	used := 0
	for _, c := range p.alloc {
		used += c
	}
	return len(p.cores) - used
}

func (p *Parties) canGrow(svc int, res partiesResource) bool {
	switch res {
	case resCores:
		return p.freeCores() > 0
	default:
		return p.freqStep[svc] < platform.NumFreqSteps-1
	}
}

func (p *Parties) canShrink(svc int, res partiesResource) bool {
	switch res {
	case resCores:
		return p.alloc[svc] > 1
	default:
		return p.freqStep[svc] > 0
	}
}

// canReclaim additionally honours the post-revert hold.
func (p *Parties) canReclaim(svc int, res partiesResource) bool {
	return p.canShrink(svc, res) && p.step >= p.blocked[svc][res]
}

func (p *Parties) apply(svc int, res partiesResource, delta int) {
	switch res {
	case resCores:
		p.alloc[svc] += delta
	default:
		p.freqStep[svc] += delta
	}
}

// assignment lays the services out contiguously from core 0. Cores
// reclaimed from LC services are destined for batch work in PARTIES'
// design, so they are left at the highest DVFS state — PARTIES manages
// QoS and throughput, not power, which is why it trails Twig-C on energy
// (Sec. V-B2).
func (p *Parties) assignment() sim.Assignment {
	asg := sim.Assignment{
		PerService:  make([]sim.Allocation, len(p.alloc)),
		IdleFreqGHz: platform.MaxFreqGHz,
	}
	pos := 0
	for i, c := range p.alloc {
		ids := append([]int(nil), p.cores[pos:pos+c]...)
		asg.PerService[i] = sim.Allocation{Cores: ids, FreqGHz: platform.FreqForStep(p.freqStep[i])}
		pos += c
	}
	return asg
}
