// Package loadgen generates the request-rate curves of the evaluation:
// fixed loads (20/50/80% of maximum), the step-wise monotonic varying
// load of Figs. 10–11 (change factor 20%, steps every 200 s), and the
// diurnal pattern common in data centres.
package loadgen

import (
	"errors"
	"fmt"
	"math"
)

// Pattern yields the offered load, in requests per second, at a given
// simulated second.
type Pattern interface {
	RPS(t int) float64
}

// Fixed is a constant load.
type Fixed float64

// RPS returns the constant rate.
func (f Fixed) RPS(int) float64 { return float64(f) }

// StepWise is the paper's varying-load generator (Sec. V-B1): the load
// starts at MinRPS and is multiplied by ChangeFactor every PeriodS
// seconds until it reaches MaxRPS, then divided by the factor back down
// to MinRPS, cycling. ChangeFactor is expressed as the fractional change
// (0.2 = ±20%).
type StepWise struct {
	MinRPS, MaxRPS float64
	ChangeFactor   float64
	PeriodS        int

	levels []float64
}

// NewStepWise constructs the generator, precomputing the load ladder.
func NewStepWise(minRPS, maxRPS, changeFactor float64, periodS int) *StepWise {
	if minRPS <= 0 || maxRPS < minRPS || changeFactor <= 0 || periodS <= 0 {
		panic("loadgen: invalid StepWise parameters")
	}
	s := &StepWise{MinRPS: minRPS, MaxRPS: maxRPS, ChangeFactor: changeFactor, PeriodS: periodS}
	up := []float64{minRPS}
	for l := minRPS * (1 + changeFactor); l < maxRPS; l *= 1 + changeFactor {
		up = append(up, l)
	}
	up = append(up, maxRPS)
	// Ascend then descend (excluding the repeated endpoints).
	s.levels = append(s.levels, up...)
	for i := len(up) - 2; i > 0; i-- {
		s.levels = append(s.levels, up[i])
	}
	return s
}

// RPS returns the ladder level active at second t.
func (s *StepWise) RPS(t int) float64 {
	step := (t / s.PeriodS) % len(s.levels)
	return s.levels[step]
}

// Diurnal is a day/night sinusoid: load oscillates between MinRPS and
// MaxRPS with the given period (86400 s for a day).
type Diurnal struct {
	MinRPS, MaxRPS float64
	PeriodS        int
	// PhaseS shifts the peak; with 0 the pattern starts at the mean
	// load heading towards the peak.
	PhaseS int
}

// RPS returns the sinusoidal load at second t.
func (d Diurnal) RPS(t int) float64 {
	if d.PeriodS <= 0 {
		return d.MinRPS
	}
	mid := (d.MinRPS + d.MaxRPS) / 2
	amp := (d.MaxRPS - d.MinRPS) / 2
	phase := 2 * math.Pi * float64(t+d.PhaseS) / float64(d.PeriodS)
	return mid + amp*math.Sin(phase)
}

// PatternNames lists, for flag help, the load patterns Named knows.
const PatternNames = "fixed, stepwise or diurnal"

// ErrUnknownPattern marks a load-pattern name Named does not know.
var ErrUnknownPattern = errors.New("loadgen: unknown load pattern (want " + PatternNames + ")")

// Named returns the load pattern a service request names at frac of a
// saturation load maxRPS: constant, the step-wise ladder from a fifth
// of it, or the diurnal swing from 30 % of it over an hour.
func Named(name string, frac, maxRPS float64) (Pattern, error) {
	switch name {
	case "fixed":
		return Fixed(frac * maxRPS), nil
	case "stepwise":
		return NewStepWise((0.2*frac)*maxRPS, frac*maxRPS, 0.2, 200), nil
	case "diurnal":
		return Diurnal{MinRPS: (0.3 * frac) * maxRPS, MaxRPS: frac * maxRPS, PeriodS: 3600}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownPattern, name)
}
