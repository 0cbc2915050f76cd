package experiments

import (
	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/ctrl"
	"github.com/twig-sched/twig/internal/sim"
)

// LoopState is the runner-side state a crash-consistent checkpoint
// carries alongside the server's and controller's own sections: the next
// interval to execute and the interval kernel's carried state (pending
// observation, last accepted assignment, tracker queue memory). Together
// with those sections it pins down everything the remainder of a run
// depends on — restoring all of them makes the resumed trajectory
// bit-identical to the uninterrupted one.
type LoopState struct {
	Next int
	Loop *ctrl.Loop
}

// NewLoopState returns the loop state of a run over srv and c that has
// not started; decode a checkpoint into it to continue one that has.
func NewLoopState(srv *sim.Server, c ctrl.Controller) *LoopState {
	return &LoopState{Loop: ctrl.NewLoop(srv, c)}
}

// CheckpointName implements checkpoint.Checkpointable.
func (l *LoopState) CheckpointName() string { return "run-loop" }

// EncodeState implements checkpoint.Checkpointable.
func (l *LoopState) EncodeState(e *checkpoint.Encoder) {
	e.Int(l.Next)
	l.Loop.EncodeState(e)
}

// DecodeState implements checkpoint.Checkpointable.
func (l *LoopState) DecodeState(d *checkpoint.Decoder) error {
	l.Next = d.Int()
	return l.Loop.DecodeState(d)
}

// Configure points cfg at this loop state: the run starts at l.Next and
// drives l.Loop, so an AfterInterval checkpoint of l (with Next set to
// the following interval) sees the loop's live state.
func (l *LoopState) Configure(cfg *RunConfig) {
	cfg.StartSecond = l.Next
	cfg.Loop = l.Loop
}
