package service

import (
	"errors"
	"fmt"
	"math"
)

// Built-in profiles for the services used in the paper's evaluation. The
// maximum loads are Table II's; the remaining parameters were chosen so
// the simulated capacity sweep (experiment table2) lands near the
// paper's QoS targets and so the interference interactions the paper
// highlights hold: Masstree barely uses memory bandwidth but is very
// sensitive to bandwidth interference, Moses is cache- and
// bandwidth-hungry, Img-dnn is compute-bound.
var builtin = map[string]Profile{
	"masstree": {
		Name:             "masstree",
		MaxLoadRPS:       2400,
		RhoMax:           0.80,
		WorkSigma:        0.35,
		FreqSensitivity:  0.75,
		SerialFraction:   0.004,
		BWPerWork:        0.25,
		BWSensitivity:    2.2,
		CacheMB:          8,
		CacheSensitivity: 1.6,
		IPCBase:          1.1,
		BranchRatio:      0.18,
		BranchMissRate:   0.015,
		MemAccessRate:    0.012,
		L1DRate:          0.34,
		L1IRate:          0.10,
		UopFactor:        1.25,
	},
	"xapian": {
		Name:             "xapian",
		MaxLoadRPS:       1000,
		RhoMax:           0.80,
		WorkSigma:        0.40,
		FreqSensitivity:  0.80,
		SerialFraction:   0.006,
		BWPerWork:        0.55,
		BWSensitivity:    1.2,
		CacheMB:          20,
		CacheSensitivity: 1.0,
		IPCBase:          1.3,
		BranchRatio:      0.22,
		BranchMissRate:   0.022,
		MemAccessRate:    0.008,
		L1DRate:          0.38,
		L1IRate:          0.13,
		UopFactor:        1.30,
	},
	"moses": {
		Name:             "moses",
		MaxLoadRPS:       2800,
		RhoMax:           0.80,
		WorkSigma:        0.52,
		FreqSensitivity:  0.70,
		SerialFraction:   0.005,
		BWPerWork:        1.8,
		BWSensitivity:    1.0,
		CacheMB:          34,
		CacheSensitivity: 0.9,
		IPCBase:          1.0,
		BranchRatio:      0.20,
		BranchMissRate:   0.018,
		MemAccessRate:    0.020,
		L1DRate:          0.40,
		L1IRate:          0.11,
		UopFactor:        1.35,
	},
	"img-dnn": {
		Name:             "img-dnn",
		MaxLoadRPS:       1100,
		RhoMax:           0.88,
		WorkSigma:        0.50,
		FreqSensitivity:  0.95,
		SerialFraction:   0.003,
		BWPerWork:        0.45,
		BWSensitivity:    0.6,
		CacheMB:          12,
		CacheSensitivity: 0.5,
		IPCBase:          1.8,
		BranchRatio:      0.10,
		BranchMissRate:   0.006,
		MemAccessRate:    0.006,
		L1DRate:          0.45,
		L1IRate:          0.08,
		UopFactor:        1.40,
	},
	// Memcached and Web-Search drive the Fig. 1 tail-latency
	// characterisation experiments (Sec. II-A).
	"memcached": {
		Name:             "memcached",
		MaxLoadRPS:       32000,
		RhoMax:           0.75,
		WorkSigma:        0.35,
		FreqSensitivity:  0.65,
		SerialFraction:   0.002,
		BWPerWork:        0.35,
		BWSensitivity:    1.8,
		CacheMB:          10,
		CacheSensitivity: 1.4,
		IPCBase:          0.9,
		BranchRatio:      0.16,
		BranchMissRate:   0.010,
		MemAccessRate:    0.014,
		L1DRate:          0.36,
		L1IRate:          0.09,
		UopFactor:        1.20,
	},
	"web-search": {
		Name:             "web-search",
		MaxLoadRPS:       1200,
		RhoMax:           0.85,
		WorkSigma:        0.45,
		FreqSensitivity:  0.85,
		SerialFraction:   0.006,
		BWPerWork:        0.60,
		BWSensitivity:    1.1,
		CacheMB:          24,
		CacheSensitivity: 1.0,
		IPCBase:          1.4,
		BranchRatio:      0.21,
		BranchMissRate:   0.020,
		MemAccessRate:    0.010,
		L1DRate:          0.37,
		L1IRate:          0.12,
		UopFactor:        1.30,
	},
}

// TailbenchNames lists the four Tailbench services of the evaluation in
// the paper's Table II order.
func TailbenchNames() []string { return []string{"masstree", "xapian", "moses", "img-dnn"} }

// The service-request rule's errors (twigd, both admissions and both
// restores ask it); each names the refused value.
var (
	ErrUnknownProfile = errors.New("service: unknown profile")
	ErrBadLoad        = errors.New("service: load fraction must be a finite value in (0, 1.5]")
	ErrBadQoS         = errors.New("service: QoS target must be a finite positive latency")
)

// Lookup returns the built-in profile with the given name.
func Lookup(name string) (Profile, error) {
	p, ok := builtin[name]
	if !ok {
		return Profile{}, fmt.Errorf("%w %q", ErrUnknownProfile, name)
	}
	return p, nil
}

const maxLoadFrac = 1.5 // past saturation, short of queues that only grow

// CheckLoad refuses a fraction of MaxLoadRPS outside (0, maxLoadFrac].
func CheckLoad(frac float64) error {
	if !(frac > 0 && frac <= maxLoadFrac) {
		return fmt.Errorf("%w: got %v", ErrBadLoad, frac)
	}
	return nil
}

// CheckQoS refuses a tail-latency target that is not finite and > 0 ms.
func CheckQoS(ms float64) error {
	if !(ms > 0 && ms <= math.MaxFloat64) {
		return fmt.Errorf("%w: got %v", ErrBadQoS, ms)
	}
	return nil
}

// MustLookup is Lookup for known-good names; it panics on failure.
func MustLookup(name string) Profile {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all built-in profile names (unordered).
func Names() []string {
	out := make([]string, 0, len(builtin))
	for n := range builtin {
		out = append(out, n)
	}
	return out
}
