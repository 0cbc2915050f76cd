package ctrl

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/sim"
)

// Outcome reports what the kernel had to do to get an interval through
// the simulator. The kernel only reports; what a panic or a rejected
// decision means — a summary count, a metric, a frozen node — is the
// caller's business.
type Outcome uint8

const (
	// DecidePanicked: the controller panicked (in Decide, PrepareDecide
	// or FinishDecide) and the last valid assignment was applied instead.
	DecidePanicked Outcome = 1 << iota
	// StepRejected: the simulator rejected the controller's assignment
	// and the last valid one was applied instead.
	StepRejected
)

// decideHalf names the controller entry point an interval still owes.
type decideHalf uint8

const (
	wholeDecide   decideHalf = iota // nothing prepared: run Decide
	prepareHalf                     // run PrepareDecide
	finishHalf                      // PrepareDecide ran: run FinishDecide
	prepareFailed                   // PrepareDecide panicked: decide nothing
)

// Loop is the interval kernel, the one implementation of Algorithm 1's
// body every driver shares: decide → sim.Server.Step → fall back to the
// last valid assignment on a panic or a rejected decision → observe. It
// owns the state that carries from one interval to the next — the
// pending observation, the last assignment the simulator accepted (real
// hardware holds its previous DVFS/affinity programming the same way),
// the tracker's queue memory — and the reused offered-load buffer and
// observation storage. Together with the server's and controller's own
// sections, EncodeState pins down everything interval t+1 onward depends
// on.
type Loop struct {
	srv       *sim.Server
	c         Controller
	tracker   ObservationTracker
	obs       Observation
	lastValid sim.Assignment
	loads     []float64
	owed      decideHalf
	// spare is the Services storage of the observation before obs, which
	// the next Observe fills: an observation stays intact through the
	// Observe after the one that returned it.
	spare []ServiceObs
}

// NewLoop returns a loop about to run its first interval: the bootstrap
// observation pending and the safe assignment standing in as last valid.
func NewLoop(srv *sim.Server, c Controller) *Loop {
	l := &Loop{obs: InitialObservation(srv)}
	l.Bind(srv, c)
	lo, hi := srv.FreqRange()
	l.lastValid = SafeAssignment(srv.NumServices(), srv.ManagedCores(), lo, hi)
	return l
}

// Bind attaches the loop to the server and controller it drives without
// touching its carried state: a loop decoded from a checkpoint before
// its world was rebuilt (the zero Loop decodes) is bound afterwards.
func (l *Loop) Bind(srv *sim.Server, c Controller) { l.srv, l.c = srv, c }

// LastValid returns the last assignment the simulator accepted.
func (l *Loop) LastValid() sim.Assignment { return l.lastValid }

// Loads returns the loop's offered-load buffer, one entry per hosted
// service, for the caller to fill before each step (sim.Server.Step
// copies what it keeps).
func (l *Loop) Loads() []float64 {
	if k := l.srv.NumServices(); len(l.loads) != k {
		l.loads = make([]float64, k)
	}
	return l.loads
}

// Prepare runs the first half of a phased decision: a coordinator calls
// it on every loop, runs its one shared flush, then steps each loop,
// which collects the decision with FinishDecide. It is a no-op for a
// controller that is not phased; the step then runs the whole Decide.
func (l *Loop) Prepare() {
	if _, ok := l.c.(PhasedController); !ok {
		return
	}
	l.owed = finishHalf
	if _, panicked := safeDecide(l.c, prepareHalf, l.obs); panicked {
		l.owed = prepareFailed
	}
}

// Actuate decides and steps the simulator with the offered loads in
// Loads, falling back to the last valid assignment when the controller
// panics or the simulator rejects its decision. The accepted assignment
// is LastValid afterwards. The error is non-nil only when the fallback
// itself is rejected — the world no longer matches the loop — in which
// case nothing was stepped and the loop's state is unchanged.
func (l *Loop) Actuate() (sim.StepResult, Outcome, error) {
	var out Outcome
	owed := l.owed
	l.owed = wholeDecide
	asg, panicked := sim.Assignment{}, owed == prepareFailed
	if !panicked {
		asg, panicked = safeDecide(l.c, owed, l.obs)
	}
	if panicked {
		out |= DecidePanicked
		asg = l.lastValid
	}
	res, err := l.srv.Step(asg, l.loads)
	if err != nil {
		out |= StepRejected
		asg = l.lastValid
		if res, err = l.srv.Step(asg, l.loads); err != nil {
			return sim.StepResult{}, out, fmt.Errorf("ctrl: fallback assignment rejected: %w", err)
		}
	}
	l.lastValid = asg
	return res, out, nil
}

// Observe turns the interval's result into the observation pending for
// the next decision and returns it. Its Services slice is reused two
// Observes later: a caller keeping one longer copies it.
func (l *Loop) Observe(res sim.StepResult) Observation {
	obs := l.tracker.observeInto(l.spare, l.srv, res)
	l.spare, l.obs = l.obs.Services, obs
	return obs
}

// Step runs one whole interval: Actuate, then Observe. Drivers with
// work to do between the two (a trace hook) call the halves themselves.
func (l *Loop) Step() (sim.StepResult, Outcome, error) {
	res, out, err := l.Actuate()
	if err == nil {
		l.Observe(res)
	}
	return res, out, err
}

// EncodeState writes the carried state as the (observation, last valid
// assignment, tracker) triple every driver's checkpoint section ends
// with: "run-loop", "twigd-daemon" and "cluster-node-loop" prepend their
// own fields and name the section.
func (l *Loop) EncodeState(e *checkpoint.Encoder) {
	EncodeObservation(e, l.obs)
	sim.EncodeAssignment(e, l.lastValid)
	l.tracker.EncodeState(e)
}

// DecodeState restores the triple written by EncodeState.
func (l *Loop) DecodeState(d *checkpoint.Decoder) error {
	obs, err := DecodeObservation(d)
	if err != nil {
		return err
	}
	asg, err := sim.DecodeAssignment(d)
	if err != nil {
		return err
	}
	l.obs, l.lastValid = obs, asg
	return l.tracker.DecodeState(d)
}

// safeDecide runs one controller entry point — the whole Decide or one
// phased half — converting a panic into a flag, so one buggy decision
// cannot abort a run, a daemon or a fleet.
func safeDecide(c Controller, half decideHalf, obs Observation) (asg sim.Assignment, panicked bool) {
	defer func() {
		if recover() != nil {
			asg, panicked = sim.Assignment{}, true
		}
	}()
	switch half {
	case prepareHalf:
		c.(PhasedController).PrepareDecide(obs)
	case finishHalf:
		asg = c.(PhasedController).FinishDecide()
	default:
		asg = c.Decide(obs)
	}
	return asg, false
}

// SafeAssignment is the conservative fallback mapping: each of the k
// services on every managed core at the SKU's maximum DVFS setting hi,
// idle cores at its minimum lo. Like every assignment a controller
// returns, it is two allocations, the PerService slice and one array
// each service's cores are a capacity-capped sub-slice of.
func SafeAssignment(k int, managed []int, lo, hi float64) sim.Assignment {
	asg := sim.Assignment{PerService: make([]sim.Allocation, k), IdleFreqGHz: lo}
	m := len(managed)
	cores := make([]int, k*m)
	for i := range asg.PerService {
		own := cores[i*m : (i+1)*m : (i+1)*m]
		copy(own, managed)
		asg.PerService[i] = sim.Allocation{Cores: own, FreqGHz: hi}
	}
	return asg
}
