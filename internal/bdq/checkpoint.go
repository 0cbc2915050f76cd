package bdq

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/nn"
	"github.com/twig-sched/twig/internal/replay"
)

// CheckpointName labels a standalone agent section.
func (a *Agent) CheckpointName() string { return "bdq-agent" }

// EncodeState writes everything the agent needs to continue training
// bit-identically: the ε-schedule position (environment step counter),
// gradient-update counter (drives target sync), Adam timestep, RNG
// stream position, online and target networks with their Adam moments,
// and the full replay buffer. The architecture spec goes in first as a
// fingerprint so a checkpoint cannot restore into a differently shaped
// agent.
func (a *Agent) EncodeState(e *checkpoint.Encoder) {
	spec := a.cfg.Spec
	e.Int(spec.StateDim)
	e.Int(spec.Agents)
	e.Ints(spec.Dims)
	e.Int(a.step)
	e.Int(a.trainSteps)
	a.opt.EncodeState(e)
	a.rng.Source().EncodeState(e)
	nn.EncodeParams(e, a.online.Params())
	nn.EncodeParams(e, a.target.Params())
	replay.EncodeBufferKind(e, a.buffer)
	a.buffer.EncodeState(e)
}

// DecodeState restores state written by EncodeState into an agent
// constructed with the same configuration.
func (a *Agent) DecodeState(d *checkpoint.Decoder) error {
	spec := a.cfg.Spec
	stateDim, agents := d.Int(), d.Int()
	dims := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if stateDim != spec.StateDim || agents != spec.Agents || !sameInts(dims, spec.Dims) {
		return fmt.Errorf("bdq: checkpoint spec (state %d, agents %d, dims %v) does not match live agent (state %d, agents %d, dims %v)",
			stateDim, agents, dims, spec.StateDim, spec.Agents, spec.Dims)
	}
	step, trainSteps := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if step < 0 || trainSteps < 0 {
		return fmt.Errorf("bdq: negative step counters (%d, %d) in checkpoint", step, trainSteps)
	}
	if err := a.opt.DecodeState(d); err != nil {
		return err
	}
	if err := a.rng.Source().DecodeState(d); err != nil {
		return err
	}
	if err := nn.DecodeParams(d, a.online.Params()); err != nil {
		return fmt.Errorf("bdq: online network: %w", err)
	}
	if err := nn.DecodeParams(d, a.target.Params()); err != nil {
		return fmt.Errorf("bdq: target network: %w", err)
	}
	if err := replay.CheckBufferKind(d, a.buffer); err != nil {
		return err
	}
	if err := a.buffer.DecodeState(d); err != nil {
		return err
	}
	a.step = step
	a.trainSteps = trainSteps
	return nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
