// Package rng provides a serializable random source: math/rand's
// generator, owned (stdlib.go holds it, copied verbatim) and counted, so
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
	s.count++
	return s.gen.Int63()
}

// Uint64 draws the next value, advancing the counter.
func (s *Source) Uint64() uint64 {
	s.count++
	return s.gen.Uint64()
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
	for i := uint64(0); i < count; i++ {
		s.gen.Uint64()
	}
	s.count = count
	return nil
}

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

// Int63 is rand.Rand.Int63: the source's next draw.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uint32 is rand.Rand.Uint32: the high 32 of the next draw's 63 bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }
