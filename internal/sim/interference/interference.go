// Package interference models socket-level shared-resource contention
// between colocated services: a memory-bandwidth roofline and LLC
// occupancy pressure. Contention inflates the work of every request of
// an affected service, which is exactly how the controller perceives it:
// higher tail latency at the same allocation.
package interference

import "slices"

// Config describes the shared resources of one socket.
type Config struct {
	// BandwidthGBs is the socket memory-bandwidth capacity.
	BandwidthGBs float64
	// LLCMB is the last-level cache size.
	LLCMB float64
	// BWKneeFraction is the fraction of bandwidth at which queueing
	// delays start to grow (roofline knee).
	BWKneeFraction float64
}

// DefaultConfig approximates a Xeon E5-2695v4 socket: ~68 GB/s DDR4-2400
// across 4 channels and a 45 MB LLC.
func DefaultConfig() Config {
	return Config{BandwidthGBs: 68, LLCMB: 45, BWKneeFraction: 0.5}
}

// Demand is one service's pressure on the shared resources during an
// interval.
type Demand struct {
	// BandwidthGBs is the service's offered memory traffic.
	BandwidthGBs float64
	// CacheMB is the LLC footprint the service wants.
	CacheMB float64
	// ReservedMB, when positive, is an explicit LLC partition assigned
	// to the service (Intel CAT-style way allocation). Zero means the
	// service competes for the unreserved capacity.
	ReservedMB float64
	// BWSensitivity and CacheSensitivity scale how strongly contention
	// inflates this service's work.
	BWSensitivity    float64
	CacheSensitivity float64
}

// Result describes the contention outcome for one service.
type Result struct {
	// Inflation multiplies the service's request work (≥ 1).
	Inflation float64
	// LLCMissFactor multiplies the service's baseline LLC miss rate
	// (≥ 1); it feeds the synthetic PMCs.
	LLCMissFactor float64
	// CacheShareMB is the LLC capacity the service actually obtained.
	CacheShareMB float64
}

// Model computes contention for the services sharing one socket.
type Model struct {
	cfg Config
}

// New creates a contention model.
func New(cfg Config) *Model {
	if cfg.BandwidthGBs <= 0 || cfg.LLCMB <= 0 {
		panic("interference: invalid config")
	}
	if cfg.BWKneeFraction <= 0 || cfg.BWKneeFraction > 1 {
		cfg.BWKneeFraction = 0.5
	}
	return &Model{cfg: cfg}
}

// Config returns the socket resource description.
func (m *Model) Config() Config { return m.cfg }

// Compute returns the per-service contention results for the given
// simultaneous demands.
//
// Bandwidth: below the knee there is no penalty; between the knee and
// the roofline the penalty grows quadratically; past the roofline it
// grows linearly with overload. The penalty felt by service k is the
// total pressure scaled by the service's own sensitivity — this captures
// the paper's Masstree/Moses asymmetry where a low-bandwidth service can
// still suffer badly from a high-bandwidth neighbour.
//
// Cache: when the summed footprints exceed the LLC, each service obtains
// a proportional share and suffers inflation on the deficit, scaled by
// its cache sensitivity. The same pressure raises its LLC miss rate.
func (m *Model) Compute(demands []Demand) []Result {
	return m.ComputeInto(nil, demands)
}

// ComputeInto is Compute writing into dst's storage (grown when it is
// too small) so a caller stepping every interval does not allocate.
func (m *Model) ComputeInto(dst []Result, demands []Demand) []Result {
	out := slices.Grow(dst[:0], len(demands))[:len(demands)]
	var totalBW float64
	for _, d := range demands {
		totalBW += d.BandwidthGBs
	}

	// Bandwidth pressure ∈ [0, ∞): 0 below the knee.
	knee := m.cfg.BWKneeFraction * m.cfg.BandwidthGBs
	var bwPressure float64
	switch {
	case totalBW <= knee:
		bwPressure = 0
	case totalBW <= m.cfg.BandwidthGBs:
		f := (totalBW - knee) / (m.cfg.BandwidthGBs - knee)
		bwPressure = 0.5 * f * f
	default:
		bwPressure = 0.5 + 2*(totalBW/m.cfg.BandwidthGBs-1)
	}

	// LLC partitioning: services with an explicit CAT-style reservation
	// get exactly their reserved capacity (capped at the cache size);
	// the rest compete proportionally for whatever remains.
	rawReserved := 0.0
	var freeDemand float64
	for _, d := range demands {
		if d.ReservedMB > 0 {
			rawReserved += d.ReservedMB
		} else {
			freeDemand += d.CacheMB
		}
	}
	// Over-committed reservations are scaled down proportionally, like
	// overlapping CAT masks sharing ways.
	reserveScale := 1.0
	if rawReserved > m.cfg.LLCMB {
		reserveScale = m.cfg.LLCMB / rawReserved
	}
	freeCache := m.cfg.LLCMB - rawReserved*reserveScale
	if freeCache < 0 {
		freeCache = 0
	}

	for i, d := range demands {
		var share float64
		if d.ReservedMB > 0 {
			share = d.ReservedMB * reserveScale
			if share > d.CacheMB {
				share = d.CacheMB
			}
		} else {
			share = d.CacheMB
			if freeDemand > freeCache && freeDemand > 0 {
				share = d.CacheMB * freeCache / freeDemand
			}
		}
		cachePressure := 0.0
		if d.CacheMB > 0 && share < d.CacheMB {
			cachePressure = (d.CacheMB - share) / d.CacheMB
		}
		inflation := 1 + d.BWSensitivity*bwPressure + d.CacheSensitivity*cachePressure
		out[i] = Result{
			Inflation:     inflation,
			LLCMissFactor: 1 + 2.5*cachePressure + 0.5*bwPressure,
			CacheShareMB:  share,
		}
	}
	return out
}
