// Package platform models the server hardware Twig manages: a dual-socket
// machine (the paper's 2× Intel Xeon E5-2695v4, 18 cores per socket) with
// per-core DVFS from 1.20 GHz to 2.00 GHz in 0.1 GHz steps, CPU hotplug,
// and core-affinity assignment of services to cores, including the
// time-sharing that resource arbitration falls back to when requests
// overlap.
package platform

import (
	"fmt"
	"math"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// DVFS constants of the evaluation platform (Sec. V).
const (
	MinFreqGHz  = 1.20
	MaxFreqGHz  = 2.00
	FreqStepGHz = 0.10
)

// NumFreqSteps is the number of selectable DVFS states (9).
var NumFreqSteps = int(math.Round((MaxFreqGHz-MinFreqGHz)/FreqStepGHz)) + 1

// NumCacheWays is the number of LLC ways Intel CAT can partition on the
// modelled Xeon E5 v4 (20 ways over the 45 MB LLC). The paper could not
// enable CAT on its production servers; this reproduction implements it
// as the optional third action dimension the Sec. V-B1 memory-complexity
// example anticipates.
const NumCacheWays = 20

// FreqForStep maps a DVFS action index (0-based) to GHz.
func FreqForStep(step int) float64 {
	if step < 0 {
		step = 0
	}
	if step >= NumFreqSteps {
		step = NumFreqSteps - 1
	}
	return math.Round((MinFreqGHz+float64(step)*FreqStepGHz)*100) / 100
}

// Config describes the machine shape. MinFreqGHz/MaxFreqGHz bound the
// per-core DVFS range for heterogeneous SKUs (e.g. an edge node capped
// at 1.6 GHz); zero values select the paper platform's 1.20–2.00 GHz.
// Frequencies always snap to the 0.1 GHz grid.
type Config struct {
	Sockets        int
	CoresPerSocket int
	MinFreqGHz     float64
	MaxFreqGHz     float64
}

// DefaultConfig is the paper's evaluation node: 2 sockets × 18 cores,
// hyper-threading disabled.
func DefaultConfig() Config { return Config{Sockets: 2, CoresPerSocket: 18} }

// FreqRange returns the configured DVFS bounds, defaulting to the paper
// platform's range, snapped to the 0.1 GHz grid.
func (c Config) FreqRange() (lo, hi float64) {
	lo, hi = c.MinFreqGHz, c.MaxFreqGHz
	if lo == 0 {
		lo = MinFreqGHz
	}
	if hi == 0 {
		hi = MaxFreqGHz
	}
	lo = math.Round(lo*10) / 10
	hi = math.Round(hi*10) / 10
	return lo, hi
}

// ClampFreq snaps a frequency to the 0.1 GHz grid and clamps it to the
// configured range, as the acpi-cpufreq governor would. The snapping
// uses FreqForStep's step arithmetic, so on the default range it agrees
// bit-for-bit with rounding to the nearest DVFS step and taking that
// step's FreqForStep (TestClampFreqMatchesLegacyGrid).
func (c Config) ClampFreq(ghz float64) float64 {
	lo, hi := c.FreqRange()
	step := math.Round((ghz - MinFreqGHz) / FreqStepGHz)
	if math.IsNaN(step) {
		return lo
	}
	g := math.Round((MinFreqGHz+step*FreqStepGHz)*100) / 100
	if g < lo {
		return lo
	}
	if g > hi {
		return hi
	}
	return g
}

// validateFreqRange panics on an unusable DVFS range; called from New so
// a bad scenario spec fails loudly at construction.
func (c Config) validateFreqRange() {
	lo, hi := c.FreqRange()
	if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0.1 || hi < lo {
		panic(fmt.Sprintf("platform: invalid DVFS range [%v,%v]", lo, hi))
	}
}

// Core is one physical core.
type Core struct {
	ID     int
	Socket int
	// FreqGHz is the current DVFS setting.
	FreqGHz float64
	// Online is false when the core is hot-unplugged.
	Online bool
	// Owners lists the services currently affined to this core; more
	// than one owner means the core is time-shared. In a copy handed out
	// by Core or Cores it aliases the platform's storage: read it before
	// the next ClearAffinity or Assign.
	Owners []int
}

// Platform is the mutable hardware state.
type Platform struct {
	cfg   Config
	cores []Core
}

// New creates a platform with all cores online at the minimum frequency
// and no affinity assignments.
func New(cfg Config) *Platform {
	if cfg.Sockets <= 0 || cfg.CoresPerSocket <= 0 {
		panic(fmt.Sprintf("platform: invalid config %+v", cfg))
	}
	cfg.validateFreqRange()
	lo, _ := cfg.FreqRange()
	p := &Platform{cfg: cfg}
	p.cores = make([]Core, cfg.Sockets*cfg.CoresPerSocket)
	for i := range p.cores {
		p.cores[i] = Core{
			ID:      i,
			Socket:  i / cfg.CoresPerSocket,
			FreqGHz: lo,
			Online:  true,
		}
	}
	return p
}

// Config returns the machine shape.
func (p *Platform) Config() Config { return p.cfg }

// NumCores returns the total number of cores.
func (p *Platform) NumCores() int { return len(p.cores) }

// Core returns a copy of the core state.
func (p *Platform) Core(id int) Core {
	p.check(id)
	return p.cores[id]
}

// Cores returns a snapshot of all core states.
func (p *Platform) Cores() []Core {
	out := make([]Core, len(p.cores))
	copy(out, p.cores)
	return out
}

// SocketCores returns the IDs of the cores on a socket.
func (p *Platform) SocketCores(socket int) []int {
	if socket < 0 || socket >= p.cfg.Sockets {
		panic(fmt.Sprintf("platform: socket %d out of range", socket))
	}
	out := make([]int, 0, p.cfg.CoresPerSocket)
	for _, c := range p.cores {
		if c.Socket == socket {
			out = append(out, c.ID)
		}
	}
	return out
}

// SetFreq sets the DVFS state of one core (clamped to the machine's
// legal range and snapped to the 0.1 GHz grid, as the acpi-cpufreq
// governor would).
func (p *Platform) SetFreq(id int, ghz float64) {
	p.check(id)
	p.cores[id].FreqGHz = p.cfg.ClampFreq(ghz)
}

// SetOnline hotplugs a core in or out. Offline cores drop their owners.
func (p *Platform) SetOnline(id int, online bool) {
	p.check(id)
	p.cores[id].Online = online
	if !online {
		p.cores[id].Owners = nil
	}
}

// RemapOwners rewrites every core's owner list through f, which maps an
// old service index to its new index; returning keep=false drops the
// owner from the core. Used when the set of hosted services changes at
// runtime: the survivors' indices shift down and the departed service's
// affinity entries must vanish.
func (p *Platform) RemapOwners(f func(service int) (newIndex int, keep bool)) {
	for i := range p.cores {
		var out []int
		for _, o := range p.cores[i].Owners {
			if n, keep := f(o); keep {
				out = append(out, n)
			}
		}
		p.cores[i].Owners = out
	}
}

// ClearAffinity removes all service→core assignments. The owner lists
// keep their storage for the next Assign.
func (p *Platform) ClearAffinity() {
	for i := range p.cores {
		p.cores[i].Owners = p.cores[i].Owners[:0]
	}
}

// Assign affines a service to a core (sched_setaffinity equivalent).
// Assigning to an offline core is an error.
func (p *Platform) Assign(service, coreID int) error {
	p.check(coreID)
	if !p.cores[coreID].Online {
		return fmt.Errorf("platform: core %d is offline", coreID)
	}
	for _, o := range p.cores[coreID].Owners {
		if o == service {
			return nil
		}
	}
	p.cores[coreID].Owners = append(p.cores[coreID].Owners, service)
	return nil
}

// AppendServiceCores appends the cores a service is affined to, in core
// order, to dst.
func (p *Platform) AppendServiceCores(dst []int, service int) []int {
	for i := range p.cores {
		for _, o := range p.cores[i].Owners {
			if o == service {
				dst = append(dst, p.cores[i].ID)
			}
		}
	}
	return dst
}

// ShareOf returns the time share a service receives on a core
// (1/len(owners)), or 0 if not assigned or offline.
func (p *Platform) ShareOf(service, coreID int) float64 {
	p.check(coreID)
	c := p.cores[coreID]
	if !c.Online || len(c.Owners) == 0 {
		return 0
	}
	for _, o := range c.Owners {
		if o == service {
			return 1 / float64(len(c.Owners))
		}
	}
	return 0
}

// EncodeState writes the mutable hardware state: per-core DVFS setting,
// online flag and affinity owners. The machine shape is configuration
// and goes in as a fingerprint.
func (p *Platform) EncodeState(e *checkpoint.Encoder) {
	e.Int(p.cfg.Sockets)
	e.Int(p.cfg.CoresPerSocket)
	for _, c := range p.cores {
		e.F64(c.FreqGHz)
		e.Bool(c.Online)
		e.Ints(c.Owners)
	}
}

// DecodeState restores state written by EncodeState into a platform of
// the same shape.
func (p *Platform) DecodeState(d *checkpoint.Decoder) error {
	sockets, cps := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if sockets != p.cfg.Sockets || cps != p.cfg.CoresPerSocket {
		return fmt.Errorf("platform: checkpoint is for %d×%d cores, this machine is %d×%d",
			sockets, cps, p.cfg.Sockets, p.cfg.CoresPerSocket)
	}
	for i := range p.cores {
		freq := d.F64()
		online := d.Bool()
		owners := d.Ints()
		if err := d.Err(); err != nil {
			return err
		}
		if lo, hi := p.cfg.FreqRange(); math.IsNaN(freq) || freq < lo || freq > hi {
			return fmt.Errorf("platform: core %d frequency %v GHz outside [%v,%v]", i, freq, lo, hi)
		}
		p.cores[i].FreqGHz = freq
		p.cores[i].Online = online
		p.cores[i].Owners = owners
	}
	return nil
}

func (p *Platform) check(id int) {
	if id < 0 || id >= len(p.cores) {
		panic(fmt.Sprintf("platform: core %d out of range [0,%d)", id, len(p.cores)))
	}
}
