package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Sentinel decode errors, wrapped with context by the callers.
var (
	// ErrCorrupt marks a file that fails structural or CRC validation —
	// a torn write, a bit flip, or not a checkpoint at all.
	ErrCorrupt = errors.New("corrupt checkpoint")
	// ErrVersion marks a structurally valid file written by a different
	// format version.
	ErrVersion = errors.New("checkpoint version mismatch")
	// ErrTruncated marks a decoder read past the end of a payload.
	ErrTruncated = errors.New("truncated checkpoint payload")
)

// castagnoli is the CRC-32C table used for the file trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named component payload inside a checkpoint file.
type Section struct {
	Name    string
	Payload []byte
}

// EncodeFile frames sections into a checkpoint container:
//
//	magic[8] | version u32 | count u32
//	repeat:    nameLen u16 | name | payloadLen u64 | payload
//	trailer:   crc32c u32 over every preceding byte
func EncodeFile(version uint32, sections []Section) []byte {
	e := NewEncoder()
	e.beginFile(nil, version, len(sections))
	for _, s := range sections {
		start := e.beginSection(s.Name)
		e.buf = append(e.buf, s.Payload...)
		e.endSection(start)
	}
	return e.endFile()
}

// beginFile starts a container of count sections after the bytes
// already in dst, whose storage the container is appended into.
func (e *Encoder) beginFile(dst []byte, version uint32, count int) {
	e.base = len(dst)
	e.buf = append(dst, Magic...)
	e.U32(version)
	e.U32(uint32(count))
}

// beginSection writes a section's name and a payloadLen still to be
// filled in, and returns where the payload starts. The caller encodes
// the payload straight into e and then calls endSection.
func (e *Encoder) beginSection(name string) (start int) {
	if len(name) > math.MaxUint16 {
		panic(fmt.Sprintf("checkpoint: section name %d bytes", len(name)))
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(name)))
	e.buf = append(e.buf, name...)
	e.U64(0)
	return len(e.buf)
}

// endSection back-patches the payloadLen of the section whose payload
// started at start.
func (e *Encoder) endSection(start int) {
	binary.LittleEndian.PutUint64(e.buf[start-8:], uint64(len(e.buf)-start))
}

// endFile appends the CRC trailer over the container begun by beginFile
// and returns the buffer, handing its ownership back to the caller.
func (e *Encoder) endFile() []byte {
	e.U32(crc32.Checksum(e.buf[e.base:], castagnoli))
	buf := e.buf
	e.buf = nil
	return buf
}

// IsCheckpoint reports whether data begins with the checkpoint magic —
// the probe that tells the container from any other file without
// attempting a full decode.
func IsCheckpoint(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// DecodeFile validates the container (magic, CRC trailer, framing) and
// returns its version and sections. Section payloads alias data; callers
// must not mutate it while decoding. Any structural problem — including
// a torn write that truncated the file anywhere — returns ErrCorrupt
// before a single payload byte is interpreted.
func DecodeFile(data []byte) (version uint32, sections []Section, err error) {
	const headerLen = len(Magic) + 4 + 4
	if len(data) < headerLen+4 {
		return 0, nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(data))
	}
	if !IsCheckpoint(data) {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCorrupt, want, got)
	}
	version = binary.LittleEndian.Uint32(body[len(Magic):])
	count := binary.LittleEndian.Uint32(body[len(Magic)+4:])
	off := headerLen
	// Every section needs at least nameLen(2) + payloadLen(8) bytes, so
	// an absurd count is rejected before any allocation.
	if uint64(count) > uint64(len(body)-off)/10 {
		return 0, nil, fmt.Errorf("%w: %d sections in %d bytes", ErrCorrupt, count, len(body))
	}
	sections = make([]Section, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+2 > len(body) {
			return 0, nil, fmt.Errorf("%w: section %d header past EOF", ErrCorrupt, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+8 > len(body) {
			return 0, nil, fmt.Errorf("%w: section %d name/length past EOF", ErrCorrupt, i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		payloadLen := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if payloadLen > uint64(len(body)-off) {
			return 0, nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrCorrupt, name, payloadLen, len(body)-off)
		}
		sections = append(sections, Section{Name: name, Payload: body[off : off+int(payloadLen)]})
		off += int(payloadLen)
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("%w: %d bytes after last section", ErrCorrupt, len(body)-off)
	}
	return version, sections, nil
}

// Encoder serialises component state into a section payload. All values
// are little-endian and fixed-width; floats are IEEE-754 bit patterns,
// so NaNs and signed zeros round-trip exactly.
type Encoder struct {
	buf  []byte
	base int // where the container being framed starts in buf
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Bool writes a single byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// U32 writes a fixed 32-bit unsigned value.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// U64 writes a fixed 64-bit unsigned value.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 writes a fixed 64-bit signed value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as a 64-bit signed value.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes the IEEE-754 bit pattern of v.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a length-prefixed opaque byte slice (nil encodes as
// empty). The fleet checkpoint uses it to nest per-node snapshot
// containers inside the cluster section.
func (e *Encoder) Blob(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// extend writes the length prefix of an n-element slice, grows the
// buffer once by n elements of elemSize bytes and returns that tail for
// the caller to store into.
func (e *Encoder) extend(n, elemSize int) []byte {
	e.U32(uint32(n))
	start := len(e.buf)
	e.buf = slices.Grow(e.buf, n*elemSize)[:start+n*elemSize]
	return e.buf[start:]
}

// F64s writes a length-prefixed float64 slice (nil encodes as empty; use
// an explicit Bool when nil-ness carries meaning). The slice methods
// store with explicit little-endian puts rather than casting the slice
// to bytes, so the format does not depend on the host's byte order;
// four values per trip through a fixed-size block is what lets the
// compiler drop the per-store bounds checks (3× the one-at-a-time loop).
func (e *Encoder) F64s(v []float64) {
	b := e.extend(len(v), 8)
	for ; len(v) >= 4; v, b = v[4:], b[32:] {
		p := (*[32]byte)(b)
		binary.LittleEndian.PutUint64(p[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(p[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(p[24:], math.Float64bits(v[3]))
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Runs is a float64 slice that lies in pieces: Run(0), Run(1), …,
// Run(NumRuns()−1) laid end to end. mat.PackedB is one — a tensor kept
// in panels, read row-major a panel's width at a time.
type Runs interface {
	NumRuns() int
	Run(i int) []float64
}

// F64sRuns writes the n values r holds exactly as F64s writes them from
// one slice, so F64s and F64sInto read them back alike.
func (e *Encoder) F64sRuns(n int, r Runs) {
	b := e.extend(n, 8)
	for i, runs := 0, r.NumRuns(); i < runs; i++ {
		run := r.Run(i)
		for j, x := range run {
			binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(x))
		}
		b = b[8*len(run):]
	}
	if len(b) != 0 {
		panic(fmt.Sprintf("checkpoint: F64sRuns of %d values from runs %d short", n, len(b)/8))
	}
}

// Ints writes a length-prefixed int slice.
func (e *Encoder) Ints(v []int) {
	b := e.extend(len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(x)))
	}
}

// Bools writes a length-prefixed bool slice.
func (e *Encoder) Bools(v []bool) {
	b := e.extend(len(v), 1)
	for i, x := range v {
		b[i] = 0
		if x {
			b[i] = 1
		}
	}
}

// Decoder reads component state back out of a section payload. Errors
// are sticky: after the first failed read every subsequent read returns
// the zero value, and Err reports the failure. Length-prefixed reads are
// bounded by the remaining payload before allocating, so corrupt or
// hostile length fields cannot cause large allocations.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps a section payload.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("need %d bytes, %d remain at offset %d", n, d.Remaining(), d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Bool reads one byte written by Encoder.Bool. Any non-0/1 value is an
// error so corrupt payloads fail instead of decoding to "true".
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %#x", b[0])
		return false
	}
}

// U32 reads a fixed 32-bit unsigned value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit unsigned value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed 64-bit signed value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads an IEEE-754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed opaque byte slice (empty decodes as
// nil). The returned slice is a copy, safe to retain.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Count reads a list count written by Encoder.Int. Every element of the
// list encodes to at least minBytes (≥ 1) bytes, so a count that is
// negative or that the remaining payload cannot hold fails the decoder
// and reads as 0 — before the caller allocates or loops. The bound
// divides the payload instead of multiplying the count, which could
// wrap.
func (d *Decoder) Count(minBytes int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Remaining()/minBytes {
		d.fail("list of %d elements exceeds payload of %d bytes at %dB or more each", n, d.Remaining(), minBytes)
		return 0
	}
	return n
}

// EncodeList writes a list as its Int count followed by every element
// through enc: the framing DecodeList and Count read.
func EncodeList[T any](e *Encoder, xs []T, enc func(*Encoder, T)) {
	e.Int(len(xs))
	for _, x := range xs {
		enc(e, x)
	}
}

// DecodeList reads a list written by EncodeList, each element through
// dec, whose encoding is minBytes or more. The first failure — the
// count, an element — is returned; an empty list decodes as nil.
func DecodeList[T any](d *Decoder, minBytes int, dec func(*Decoder) (T, error)) ([]T, error) {
	n := d.Count(minBytes)
	if n == 0 {
		return nil, d.Err()
	}
	out := make([]T, n)
	for i := range out {
		x, err := dec(d)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// sliceLen validates a length prefix against the remaining payload at
// elemSize bytes per element.
func (d *Decoder) sliceLen(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > d.Remaining() {
		d.fail("slice of %d×%dB exceeds %d remaining bytes", n, elemSize, d.Remaining())
		return 0
	}
	return n
}

// F64s reads a length-prefixed float64 slice (empty decodes as nil).
func (d *Decoder) F64s() []float64 { return d.F64sAppend(nil) }

// F64sAppend reads a length-prefixed float64 slice onto the end of dst
// and returns the extended slice, so a caller decoding many slices can
// give them one backing array. An empty slice or an error returns dst
// as it came.
func (d *Decoder) F64sAppend(dst []float64) []float64 {
	n := d.sliceLen(8)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	getF64s(dst[start:], d.take(8*n))
	return dst
}

// F64sInto reads a length-prefixed float64 slice of exactly len(dst)
// values into dst: a tensor whose shape the live structure fixes. Any
// other stored length is an error, raised before dst is written.
func (d *Decoder) F64sInto(dst []float64) {
	n := d.sliceLen(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail("slice of %d values for a tensor of %d", n, len(dst))
		return
	}
	getF64s(dst, d.take(8*n))
}

// F64sIntoRuns is F64sInto for a destination that lies in pieces: a
// stored length other than n is an error, raised before r is written.
func (d *Decoder) F64sIntoRuns(n int, r Runs) {
	m := d.sliceLen(8)
	if d.err != nil {
		return
	}
	if m != n {
		d.fail("slice of %d values for a tensor of %d", m, n)
		return
	}
	b := d.take(8 * n)
	for i, runs := 0, r.NumRuns(); i < runs; i++ {
		run := r.Run(i)
		getF64s(run, b)
		b = b[8*len(run):]
	}
}

// getF64s fills dst from 8·len(dst) little-endian bytes, four values
// per trip like Encoder.F64s.
func getF64s(dst []float64, b []byte) {
	for ; len(dst) >= 4; dst, b = dst[4:], b[32:] {
		p := (*[32]byte)(b)
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(p[0:]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Ints reads a length-prefixed int slice (empty decodes as nil).
func (d *Decoder) Ints() []int { return d.IntsAppend(nil) }

// IntsAppend is F64sAppend for an int slice.
func (d *Decoder) IntsAppend(dst []int) []int {
	n := d.sliceLen(8)
	b := d.take(8 * n)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	for i := range dst[start:] {
		dst[start+i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return dst
}

// Bools reads a length-prefixed bool slice (empty decodes as nil).
func (d *Decoder) Bools() []bool {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}
