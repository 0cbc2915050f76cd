package ctrl

import (
	"slices"

	"github.com/twig-sched/twig/internal/sim"
)

// ObservationTracker converts simulation step results into controller
// observations. It remembers each service's queue depth from the previous
// interval so ServiceObs.QueueGrowing reflects an actual increase — the
// signal Twig's reward (Eq. 1) and the Hipster baseline key off. The zero
// value is ready to use; the first observation compares against empty
// queues.
type ObservationTracker struct {
	prevQueue []int
}

// Observe builds the observation for the interval after res. Its
// Services slice is fresh: the caller may keep it.
func (tr *ObservationTracker) Observe(srv *sim.Server, res sim.StepResult) Observation {
	return tr.observeInto(nil, srv, res)
}

// observeInto is Observe with Services appended to buf[:0].
func (tr *ObservationTracker) observeInto(buf []ServiceObs, srv *sim.Server, res sim.StepResult) Observation {
	if tr.prevQueue == nil {
		tr.prevQueue = make([]int, srv.NumServices())
	}
	obs := Observation{Time: res.Time + 1, PowerW: res.PowerW}
	obs.Services = slices.Grow(buf[:0], len(res.Services))
	for i, sv := range res.Services {
		obs.Services = append(obs.Services, ServiceObs{
			P99Ms:        sv.P99Ms,
			QoSTargetMs:  sv.QoSTargetMs,
			MeasuredRPS:  float64(sv.Completed),
			MaxLoadRPS:   srv.Spec(i).Profile.MaxLoadRPS,
			NormPMCs:     sv.NormPMCs,
			QueueGrowing: sv.QueueLen > tr.prevQueue[i],
		})
		tr.prevQueue[i] = sv.QueueLen
	}
	return obs
}

// ObservationFromStep is the stateless one-shot variant: QueueGrowing is
// set whenever the queue is non-empty, since no previous depth is known.
// Control loops should prefer an ObservationTracker.
func ObservationFromStep(srv *sim.Server, res sim.StepResult) Observation {
	var tr ObservationTracker
	return tr.Observe(srv, res)
}

// InitialObservation bootstraps a control loop before any measurement
// exists: only the static per-service fields (QoS target, profiled peak
// load) are populated.
func InitialObservation(srv *sim.Server) Observation {
	obs := Observation{Services: make([]ServiceObs, 0, srv.NumServices())}
	for i := 0; i < srv.NumServices(); i++ {
		spec := srv.Spec(i)
		obs.Services = append(obs.Services, ServiceObs{
			QoSTargetMs: spec.QoSTargetMs,
			MaxLoadRPS:  spec.Profile.MaxLoadRPS,
		})
	}
	return obs
}
