package nn

import (
	"fmt"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat"
)

// EncodeParams writes the full learnable state of params: values plus
// the Adam first/second moment estimates when the optimiser has
// allocated them. Gradients are transient (rebuilt by the next backward
// pass) and are not captured.
func EncodeParams(e *checkpoint.Encoder, params []*Param) {
	e.Int(len(params))
	for _, p := range params {
		e.String(p.Name)
		e.Int(p.Value.Rows)
		e.Int(p.Value.Cols)
		e.F64s(p.Value.Data)
		if p.m != nil {
			e.Bool(true)
			e.F64s(p.m.Data)
			e.F64s(p.v.Data)
		} else {
			e.Bool(false)
		}
	}
}

// DecodeParams restores state written by EncodeParams into a network of
// the same architecture, validating each parameter's name and shape so
// a mismatched restore says exactly which tensor disagrees.
func DecodeParams(d *checkpoint.Decoder, params []*Param) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, network has %d", n, len(params))
	}
	for i, p := range params {
		name := d.String()
		rows, cols := d.Int(), d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: param %d is %q in checkpoint, %q in network", i, name, p.Name)
		}
		if rows != p.Value.Rows || cols != p.Value.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d in checkpoint, %dx%d in network",
				name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		// Value and moments decode in place: the live shape was just
		// matched, and F64sInto rejects any other stored length before
		// it writes.
		d.F64sInto(p.Value.Data)
		hasMoments := d.Bool()
		if err := d.Err(); err != nil {
			return fmt.Errorf("nn: param %q: %w", name, err)
		}
		if !hasMoments {
			p.m, p.v = nil, nil
			continue
		}
		if p.m == nil {
			p.m = mat.New(rows, cols)
			p.v = mat.New(rows, cols)
		}
		d.F64sInto(p.m.Data)
		d.F64sInto(p.v.Data)
		if err := d.Err(); err != nil {
			return fmt.Errorf("nn: param %q moments: %w", name, err)
		}
	}
	return nil
}

// EncodeState writes the optimiser's bias-correction timestep. The
// hyper-parameters (LR, betas, clipping) are configuration and are
// re-supplied at construction.
func (a *Adam) EncodeState(e *checkpoint.Encoder) {
	e.Int(a.step)
}

// DecodeState restores the optimiser timestep.
func (a *Adam) DecodeState(d *checkpoint.Decoder) error {
	step := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("nn: negative Adam step %d in checkpoint", step)
	}
	a.step = step
	return nil
}
