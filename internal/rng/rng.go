// Package rng provides a serializable random source: math/rand's
// generator, owned (stdlib.go holds its copy) and counted, so
// a stream's exact position can be checkpointed as (seed, count) and
// restored by reseeding and fast-forwarding. Every stream produced
// through this package is bit-identical to one built directly on
// math/rand with the same seed, which is what lets checkpointing slot
// under the existing deterministic simulator and agents without
// perturbing a single historical draw.
package rng

import (
	"fmt"
	"math/rand"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// maxFastForward bounds the draw count accepted from a checkpoint.
// Legitimate runs stay far below this (the hottest stream draws a few
// per request-second); a corrupt or hostile count must error instead of
// spinning the restore for hours.
const maxFastForward = 1 << 33

// Source is a counting rand.Source64 over math/rand's additive lagged
// Fibonacci generator. Both Int63 and Uint64 advance it exactly one
// step, so a single counter captures the stream position regardless of
// which mix of calls consumed it.
type Source struct {
	seed  int64
	count uint64
	gen   rngSource
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{seed: seed}
	s.gen.Seed(seed)
	return s
}

// Int63 draws the next value, advancing the counter.
func (s *Source) Int63() int64 {
	x, c := s.cursor().Int63()
	c.Close()
	return x
}

// Uint64 draws the next value, advancing the counter.
func (s *Source) Uint64() uint64 {
	x, c := s.cursor().Uint64()
	c.Close()
	return x
}

// Seed resets the stream to a fresh seed with a zero counter.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.count = 0
	s.gen.Seed(seed)
}

// Pos returns the stream position as (seed, draws since seeding).
func (s *Source) Pos() (seed int64, count uint64) { return s.seed, s.count }

// EncodeState writes the stream position.
func (s *Source) EncodeState(e *checkpoint.Encoder) {
	e.I64(s.seed)
	e.U64(s.count)
}

// DecodeState restores the stream position by reseeding and replaying
// count draws. The live generator afterwards produces exactly the draws
// the encoded one would have produced next.
func (s *Source) DecodeState(d *checkpoint.Decoder) error {
	seed := d.I64()
	count := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if count > maxFastForward {
		return fmt.Errorf("rng: draw count %d exceeds fast-forward limit %d (corrupt checkpoint?)", count, uint64(maxFastForward))
	}
	s.Seed(seed)
	c := s.cursor()
	for c.n < count {
		_, c = c.Uint64()
	}
	c.Close()
	return nil
}

// Cursor is a pass over a stream with the generator's lag indices and the
// draw count held in locals: open one with Rand.Cursor, draw on it, and
// Close it to write the position back. Each draw returns the advanced
// cursor (x, c = c.Float64()), so a loop keeps it in registers, where a
// pointer receiver would pin it to the stack; a draw whose returned
// cursor is dropped has still changed the generator's register, so the
// stream goes wrong. Its draws are the Rand's and every single draw of
// Source and Rand runs on a one-draw cursor, so a pass and a per-draw
// loop leave the same stream and Pos. Nothing may draw from the Rand
// between opening a cursor and closing it.
type Cursor struct {
	src       *Source
	tap, feed int
	n         uint64
}

func (s *Source) cursor() Cursor { return Cursor{s, s.gen.tap, s.gen.feed, s.count} }

// Close writes the cursor's position back to its stream.
func (c Cursor) Close() { c.src.gen.tap, c.src.gen.feed, c.src.count = c.tap, c.feed, c.n }

// Rand couples a *rand.Rand with its counting source so call sites keep
// the full math/rand API while the stream stays checkpointable. Int63,
// Uint32, Float64, ExpFloat64 and NormFloat64 are math/rand's, run on the
// source directly rather than through rand.Rand's interface; the rest of
// the API is rand.Rand's on the same source, so a caller handed the
// *rand.Rand draws from the one stream.
type Rand struct {
	*rand.Rand
	src *Source
}

// New returns a Rand whose stream is bit-identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	s := NewSource(seed)
	return &Rand{Rand: rand.New(s), src: s}
}

// Source returns the counting source for checkpointing.
func (r *Rand) Source() *Source { return r.src }

// Cursor opens a pass over the stream; Close it before the Rand draws
// again.
func (r *Rand) Cursor() Cursor { return r.src.cursor() }

// Int63 is rand.Rand.Int63: the source's next draw.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uint32 is rand.Rand.Uint32: the high 32 of the next draw's 63 bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Float64 is rand.Rand.Float64 on a one-draw cursor. It spells out
// Float64s' loop for one draw, which keeps the single draw one call.
func (r *Rand) Float64() float64 {
	c := r.Cursor()
	for {
		var x int64
		x, c = c.Int63()
		if f, ok := float64Of(x); ok {
			c.Close()
			return f
		}
	}
}

// ExpFloat64 is rand.Rand.ExpFloat64 on a one-draw cursor.
func (r *Rand) ExpFloat64() float64 {
	x, c := r.Cursor().ExpFloat64()
	c.Close()
	return x
}

// NormFloat64 is rand.Rand.NormFloat64 on a one-draw cursor.
func (r *Rand) NormFloat64() float64 {
	x, c := r.Cursor().NormFloat64()
	c.Close()
	return x
}

// Poisson appends to at the instants of a Poisson process of the given
// rate after t and before end, and to marks, for each instant,
// mu + sigma·NormFloat64() — the draws of the per-draw loop
//
//	for t += ExpFloat64() / rate; t < end; t += ExpFloat64() / rate {
//		at = append(at, t)
//		marks = append(marks, mu+sigma*NormFloat64())
//	}
//
// in one pass, with both ziggurats' fast paths inline.
func (c Cursor) Poisson(at, marks []float64, t, end, rate, mu, sigma float64) ([]float64, []float64, Cursor) {
	for {
		var j, u uint32
		j, c = c.Uint32()
		gap, ok := expFast(j)
		if !ok {
			gap, c = c.expFloat64(j)
		}
		if t += gap / rate; t >= end {
			return at, marks, c
		}
		u, c = c.Uint32()
		z, ok := normFast(int32(u))
		if !ok {
			z, c = c.normFloat64(int32(u))
		}
		at = append(at, t)
		marks = append(marks, mu+sigma*z)
	}
}
