package checkpoint

import (
	"math"
	"testing"
)

// fuzzComp exercises every Decoder primitive so the fuzzer reaches all
// length-validation paths, mirroring the shape of real component
// sections (scalars, strings, slices).
type fuzzComp struct{ name string }

func (c *fuzzComp) CheckpointName() string { return c.name }

func (c *fuzzComp) EncodeState(e *Encoder) {
	e.Int(1)
	e.F64(2.5)
	e.Bool(true)
	e.String("s")
	e.F64s([]float64{1, 2})
	e.Ints([]int{3})
	e.Bools([]bool{true})
	e.U32(7)
	e.U64(9)
	e.F64s([]float64{4, 5})
	e.Ints([]int{6})
	e.F64s([]float64{7, 8, 9})
}

func (c *fuzzComp) DecodeState(d *Decoder) error {
	d.Int()
	d.F64()
	d.Bool()
	_ = d.String()
	d.F64s()
	d.Ints()
	d.Bools()
	d.U32()
	d.U64()
	if got := d.F64sAppend([]float64{-1}); got[0] != -1 {
		panic("F64sAppend rewrote its prefix")
	}
	if got := d.IntsAppend([]int{-1}); got[0] != -1 {
		panic("IntsAppend rewrote its prefix")
	}
	into := [3]float64{-7, -7, -7}
	failed := d.Err() != nil
	d.F64sInto(into[:])
	if d.Err() != nil && !failed && into != [3]float64{-7, -7, -7} {
		panic("F64sInto wrote before rejecting")
	}
	return nil
}

// FuzzUnmarshal feeds arbitrary bytes through the full container +
// section decode path. The invariant under fuzzing: Unmarshal either
// succeeds or returns an error — it must never panic, and hostile
// length fields must never cause large allocations (enforced by the
// bounds checks; an OOM would crash the fuzz worker).
func FuzzUnmarshal(f *testing.F) {
	valid := Marshal(&fuzzComp{name: "fuzz"})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("not a checkpoint at all, just some text"))
	// Version-skewed but otherwise valid file.
	f.Add(EncodeFile(Version+1, []Section{{Name: "fuzz", Payload: []byte{1, 2, 3}}}))
	// Truncated and bit-flipped variants of the valid file.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Hostile section count / lengths.
	hostile := append([]byte(Magic), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; error vs success is data-dependent.
		_ = Unmarshal(data, &fuzzComp{name: "fuzz"})

		// The raw container decoder has the same obligation, including
		// for files whose sections we never requested.
		if _, secs, err := DecodeFile(data); err == nil {
			for _, s := range secs {
				d := NewDecoder(s.Payload)
				(&fuzzComp{name: s.Name}).DecodeState(d)
				_ = d.Err()
			}
		}
	})
}

// FuzzDecoderPrimitives hits the Decoder directly with raw payloads, no
// container framing, so sticky-error and bounds paths get coverage even
// on inputs the container CRC would reject.
func FuzzDecoderPrimitives(f *testing.F) {
	e := NewEncoder()
	(&fuzzComp{}).EncodeState(e)
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		(&fuzzComp{}).DecodeState(d)
		if err := d.Err(); err == nil && d.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		// Zero-value-on-error contract: after an error, reads return zeros.
		if d.Err() != nil {
			if v := d.F64(); v != 0 && !math.IsNaN(v) {
				t.Fatalf("post-error read returned %v", v)
			}
		}
	})
}
