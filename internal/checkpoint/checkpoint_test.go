package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeComp is a Checkpointable with a little of every primitive.
type fakeComp struct {
	name  string
	i     int
	f     float64
	b     bool
	s     string
	fs    []float64
	is    []int
	bs    []bool
	u     uint64
	fail  error // returned by DecodeState after reading everything
	extra bool  // read one extra int during decode (under-consume test)
}

func (c *fakeComp) CheckpointName() string { return c.name }

func (c *fakeComp) EncodeState(e *Encoder) {
	e.Int(c.i)
	e.F64(c.f)
	e.Bool(c.b)
	e.String(c.s)
	e.F64s(c.fs)
	e.Ints(c.is)
	e.Bools(c.bs)
	e.U64(c.u)
}

func (c *fakeComp) DecodeState(d *Decoder) error {
	c.i = d.Int()
	c.f = d.F64()
	c.b = d.Bool()
	c.s = d.String()
	c.fs = d.F64s()
	c.is = d.Ints()
	c.bs = d.Bools()
	c.u = d.U64()
	if c.extra {
		d.Int()
	}
	return c.fail
}

func testComp(name string) *fakeComp {
	return &fakeComp{
		name: name,
		i:    -42,
		f:    math.Pi,
		b:    true,
		s:    "twig",
		fs:   []float64{1.5, math.Inf(1), math.Copysign(0, -1), math.NaN()},
		is:   []int{0, -1, 1 << 40},
		bs:   []bool{true, false, true},
		u:    math.MaxUint64,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	a, b := testComp("a"), testComp("b")
	b.i = 7
	data := Marshal(a, b)

	a2, b2 := &fakeComp{name: "a"}, &fakeComp{name: "b"}
	if err := Unmarshal(data, a2, b2); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if a2.i != a.i || a2.f != a.f || !a2.b || a2.s != a.s || a2.u != a.u {
		t.Fatalf("scalar mismatch: %+v vs %+v", a2, a)
	}
	if len(a2.fs) != 4 || a2.fs[0] != 1.5 || !math.IsInf(a2.fs[1], 1) ||
		math.Float64bits(a2.fs[2]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsNaN(a2.fs[3]) {
		t.Fatalf("float slice mismatch: %v", a2.fs)
	}
	if len(a2.is) != 3 || a2.is[2] != 1<<40 {
		t.Fatalf("int slice mismatch: %v", a2.is)
	}
	if len(a2.bs) != 3 || !a2.bs[0] || a2.bs[1] {
		t.Fatalf("bool slice mismatch: %v", a2.bs)
	}
	if b2.i != 7 {
		t.Fatalf("section b not matched by name: %+v", b2)
	}
}

func TestUnmarshalMissingSection(t *testing.T) {
	data := Marshal(testComp("a"))
	err := Unmarshal(data, &fakeComp{name: "other"})
	if err == nil || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("want missing-section error naming the section, got %v", err)
	}
}

// emptyComp is a component with no state: its section has no payload.
type emptyComp struct{ name string }

func (c emptyComp) CheckpointName() string     { return c.name }
func (c emptyComp) EncodeState(*Encoder)       {}
func (c emptyComp) DecodeState(*Decoder) error { return nil }

// Marshal encodes every section in place into one buffer; the bytes
// must be those EncodeFile frames from separately encoded payloads,
// with an empty section first, between and last.
func TestMarshalMatchesEncodeFile(t *testing.T) {
	a, b := testComp("a"), testComp("node3-agent")
	b.fs = make([]float64, 5000) // grows the buffer past several doublings
	for _, comps := range [][]Checkpointable{
		{},
		{emptyComp{"empty"}},
		{a},
		{a, emptyComp{"empty"}, b},
		{emptyComp{"first"}, a, b, emptyComp{""}},
	} {
		var secs []Section
		for _, c := range comps {
			e := NewEncoder()
			c.EncodeState(e)
			secs = append(secs, Section{Name: c.CheckpointName(), Payload: e.Bytes()})
		}
		got, want := Marshal(comps...), EncodeFile(Version, secs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d sections: Marshal wrote %d bytes that differ from EncodeFile's %d", len(comps), len(got), len(want))
		}
		if err := Unmarshal(got, comps...); err != nil {
			t.Fatalf("%d sections: %v", len(comps), err)
		}
	}
}

func TestUnmarshalDuplicateSection(t *testing.T) {
	a := testComp("a")
	e := NewEncoder()
	a.EncodeState(e)
	data := EncodeFile(Version, []Section{
		{Name: "a", Payload: e.Bytes()},
		{Name: "a", Payload: e.Bytes()},
	})
	if err := Unmarshal(data, &fakeComp{name: "a"}); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	e := NewEncoder()
	testComp("a").EncodeState(e)
	e.Int(99) // extra bytes the decoder won't consume
	data := EncodeFile(Version, []Section{{Name: "a", Payload: e.Bytes()}})
	err := Unmarshal(data, &fakeComp{name: "a"})
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestUnmarshalOverConsume(t *testing.T) {
	data := Marshal(testComp("a"))
	err := Unmarshal(data, &fakeComp{name: "a", extra: true})
	if err == nil || !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestUnmarshalVersionSkew(t *testing.T) {
	e := NewEncoder()
	testComp("a").EncodeState(e)
	data := EncodeFile(Version+1, []Section{{Name: "a", Payload: e.Bytes()}})
	err := Unmarshal(data, &fakeComp{name: "a"})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestDecodeFileRejectsCorruption(t *testing.T) {
	data := Marshal(testComp("a"))

	// Truncation at every length must fail (CRC or structural), not panic.
	for n := 0; n < len(data); n++ {
		if _, _, err := DecodeFile(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Any single bit flip must fail the CRC (or the magic check).
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, _, err := DecodeFile(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestDecoderHostileLengths(t *testing.T) {
	// A huge length prefix must error without allocating.
	e := NewEncoder()
	e.U32(math.MaxUint32)
	d := NewDecoder(e.Bytes())
	if got := d.F64s(); got != nil || d.Err() == nil {
		t.Fatalf("hostile slice length: got %v, err %v", got, d.Err())
	}
	// Bad bool byte.
	d2 := NewDecoder([]byte{7})
	if d2.Bool(); d2.Err() == nil {
		t.Fatal("bool byte 7 accepted")
	}
	// Sticky error: later reads keep the first error.
	first := d2.Err()
	d2.U64()
	if d2.Err() != first {
		t.Fatal("decoder error not sticky")
	}
}

func TestWriteFileAtomicAndIsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.twig")
	data := Marshal(testComp("a"))
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("file contents differ from submitted data")
	}
	if !IsCheckpoint(got) {
		t.Fatal("IsCheckpoint false on a real checkpoint")
	}
	if IsCheckpoint([]byte("gob junk")) {
		t.Fatal("IsCheckpoint true on junk")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files after atomic write: %d entries", len(entries))
	}
}

func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		comp := testComp("a")
		comp.i = int(seq)
		if err := st.Save(seq, Marshal(comp)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := st.Sequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 4 || seqs[2] != 6 {
		t.Fatalf("retention kept %v, want [4 5 6]", seqs)
	}
}

func TestStoreLoadLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		comp := testComp("a")
		comp.i = int(seq)
		if err := st.Save(seq, Marshal(comp)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file: keep only a prefix, as if the process died
	// mid-write without the atomic rename (simulating a torn write that
	// somehow reached the final name).
	newest := st.Path(3)
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got := &fakeComp{name: "a"}
	seq, err := st.LoadLatest(func(data []byte) error { return Unmarshal(data, got) })
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if seq != 2 || got.i != 2 {
		t.Fatalf("fell back to seq %d (i=%d), want 2", seq, got.i)
	}
}

func TestStoreLoadLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir, 5)
	if err := os.WriteFile(st.Path(1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(func(data []byte) error {
		return Unmarshal(data, &fakeComp{name: "a"})
	}); err == nil {
		t.Fatal("all-corrupt store restored")
	}
}

func TestStoreLoadLatestEmpty(t *testing.T) {
	st, _ := NewStore(t.TempDir(), 5)
	_, err := st.LoadLatest(func([]byte) error { return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist for empty store, got %v", err)
	}
}

func TestAsyncWriterLatestWins(t *testing.T) {
	st, err := NewStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	w := NewAsyncWriter(st)
	for seq := uint64(1); seq <= 20; seq++ {
		comp := testComp("a")
		comp.i = int(seq)
		w.Submit(seq, Marshal(comp))
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	seqs, err := st.Sequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 20 {
		t.Fatalf("latest submission not persisted: %v", seqs)
	}
	got := &fakeComp{name: "a"}
	if seq, err := st.LoadLatest(func(d []byte) error { return Unmarshal(d, got) }); err != nil || seq != 20 || got.i != 20 {
		t.Fatalf("restored seq %d i %d err %v", seq, got.i, err)
	}
}

func TestAsyncWriterReportsErrors(t *testing.T) {
	st, err := NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Break the directory out from under the writer.
	if err := os.RemoveAll(st.Dir()); err != nil {
		t.Fatal(err)
	}
	w := NewAsyncWriter(st)
	w.Submit(1, Marshal(testComp("a")))
	if err := w.Flush(); err == nil {
		t.Fatal("write into removed directory reported no error")
	}
}
