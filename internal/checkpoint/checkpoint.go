// Package checkpoint implements the crash-consistent checkpoint/restore
// format every learning component of this repository serialises into: a
// versioned, CRC-checksummed binary container written atomically (temp
// file + fsync + rename), a keep-last-K on-disk store that falls back
// past corrupt files on restore, and an asynchronous writer so the
// control loop never blocks on disk.
//
// The format is deliberately simple — named sections of length-framed
// little-endian payloads followed by one CRC-32C trailer over the whole
// file — so a torn or bit-flipped write is always detected before any
// component state is touched, and the decoder can be fuzzed cheaply.
// Everything a component needs to continue *bit-identically* goes into
// its section: network weights together with Adam moments and step
// counts, replay contents with exact sum-tree node values, annealing
// positions, smoothing histories and RNG stream positions.
package checkpoint

import (
	"fmt"
	"sync"
)

// Magic identifies a checkpoint file from its first read.
const Magic = "TWIGCKPT"

// Version is the current container format version. Decoding a file with
// a different version returns ErrVersion — state layouts are not
// guaranteed compatible across versions, and a skewed restore must fail
// loudly rather than corrupt a run.
const Version uint32 = 1

// Checkpointable is the encode/decode contract a stateful component
// implements to participate in a checkpoint. EncodeState must write
// every field needed to continue bit-identically; DecodeState is called
// on a freshly constructed component (same configuration as the one that
// was encoded) and must overwrite all of that state, validating shapes
// against the live structure so a mismatched restore errors instead of
// silently mixing states.
type Checkpointable interface {
	// CheckpointName labels the component's section in the container.
	CheckpointName() string
	EncodeState(*Encoder)
	DecodeState(*Decoder) error
}

// renamed decorates a Checkpointable with a different section name, so
// several components of the same type (e.g. one simulator per cluster
// node) can share a container without colliding.
type renamed struct {
	Checkpointable
	name string
}

func (r renamed) CheckpointName() string { return r.name }

// Renamed returns c relabelled to the given section name. The cluster
// checkpoint uses it to store one "node<i>-…" section per fleet node.
func Renamed(c Checkpointable, name string) Checkpointable {
	return renamed{Checkpointable: c, name: name}
}

// Marshal encodes the components into one checkpoint container in a
// fresh buffer.
func Marshal(comps ...Checkpointable) []byte { return MarshalAppend(nil, comps...) }

// encoders recycles the Encoder a marshal hands to its components (it
// escapes through their interface), so a marshal into warm storage
// allocates nothing. A parked encoder holds no buffer.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// MarshalAppend appends one checkpoint container to dst, one section
// per component in order, and returns the extended buffer. Every
// component encodes in place into that one buffer; the container's
// bytes are those of EncodeFile over the separately encoded payloads.
// A caller that owns the storage of a container nobody reads any more
// passes it as dst[:0] and the encode reuses it.
func MarshalAppend(dst []byte, comps ...Checkpointable) []byte {
	e := encoders.Get().(*Encoder)
	e.beginFile(dst, Version, len(comps))
	for _, c := range comps {
		start := e.beginSection(c.CheckpointName())
		c.EncodeState(e)
		e.endSection(start)
	}
	out := e.endFile()
	encoders.Put(e) // not deferred: an encoder a panicking component left mid-container is dropped
	return out
}

// Verify checks the container framing — magic, version, section frames
// and the CRC trailer — without decoding any component state. It is the
// cheap validity probe the hot-reload path uses to pick a checkpoint
// before handing its bytes to a component decoder.
func Verify(data []byte) error {
	version, _, err := DecodeFile(data)
	if err != nil {
		return err
	}
	if version != Version {
		return fmt.Errorf("checkpoint: %w: file version %d, this build reads %d", ErrVersion, version, Version)
	}
	return nil
}

// Unmarshal verifies data and decodes it into the components, matched by
// section name. Every component must find its section, every section's
// payload must be fully consumed, and any failure leaves an error — the
// caller should treat the components as garbage and rebuild them (or try
// an older checkpoint) rather than continue.
func Unmarshal(data []byte, comps ...Checkpointable) error {
	version, secs, err := DecodeFile(data)
	if err != nil {
		return err
	}
	if version != Version {
		return fmt.Errorf("checkpoint: %w: file version %d, this build reads %d", ErrVersion, version, Version)
	}
	byName := make(map[string][]byte, len(secs))
	for _, s := range secs {
		if _, dup := byName[s.Name]; dup {
			return fmt.Errorf("checkpoint: duplicate section %q", s.Name)
		}
		byName[s.Name] = s.Payload
	}
	for _, c := range comps {
		payload, ok := byName[c.CheckpointName()]
		if !ok {
			return fmt.Errorf("checkpoint: missing section %q (was the checkpoint written with different flags?)", c.CheckpointName())
		}
		d := NewDecoder(payload)
		if err := c.DecodeState(d); err != nil {
			return fmt.Errorf("checkpoint: section %q: %w", c.CheckpointName(), err)
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("checkpoint: section %q: %w", c.CheckpointName(), err)
		}
		if d.Remaining() != 0 {
			return fmt.Errorf("checkpoint: section %q: %d trailing bytes", c.CheckpointName(), d.Remaining())
		}
	}
	return nil
}
