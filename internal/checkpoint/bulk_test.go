package checkpoint

import (
	"bytes"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// edgeFloats are the bit patterns a bulk store could get wrong and a
// value copy could not: NaNs with payloads (quiet, signalling, negative),
// signed zeros, infinities, denormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -math.Pi,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN, smallest payload
	math.Float64frombits(0x7ff8dead0000beef), // quiet NaN with a payload
	math.Float64frombits(0xfff4000000000123), // negative signalling NaN
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest denormal
	math.MaxFloat64, -math.MaxFloat64,
}

var edgeInts = []int{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 33) - 7}

// The slice methods write exactly what the per-element methods write
// after the length prefix — the container bytes of every checkpoint ever
// written depend on it.
func TestEncoderBulkMatchesElementwise(t *testing.T) {
	long := make([]float64, 3000) // several growth steps of a cold buffer
	for i := range long {
		long[i] = math.Float64frombits(uint64(i) * 0x9e3779b97f4a7c15)
	}
	cases := [][]float64{nil, {}, edgeFloats, long}
	for n := 1; n <= 9; n++ { // every tail length of the four-at-a-time loop
		cases = append(cases, edgeFloats[len(edgeFloats)-n:])
	}
	for _, fs := range cases {
		bulk, ref := NewEncoder(), NewEncoder()
		bulk.Bool(true) // a prefix, so the slice does not start at offset 0
		ref.Bool(true)
		bulk.F64s(fs)
		ref.U32(uint32(len(fs)))
		for _, x := range fs {
			ref.F64(x)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("F64s of %d values differs from the per-element encoding", len(fs))
		}
	}
	for _, is := range [][]int{nil, {}, {7}, edgeInts} {
		bulk, ref := NewEncoder(), NewEncoder()
		bulk.Ints(is)
		ref.U32(uint32(len(is)))
		for _, x := range is {
			ref.Int(x)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("Ints of %d values differs from the per-element encoding", len(is))
		}
	}
	for _, bs := range [][]bool{nil, {}, {true}, {false, true, true, false, false}} {
		bulk, ref := NewEncoder(), NewEncoder()
		// Dirty storage under the slice: a false must be stored, not assumed.
		bulk.buf = append(bulk.buf, bytes.Repeat([]byte{0xff}, 16)...)[:0]
		bulk.Bools(bs)
		ref.U32(uint32(len(bs)))
		for _, x := range bs {
			ref.Bool(x)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("Bools %v differs from the per-element encoding", bs)
		}
	}
}

// The slice readers return what a per-element read of the same payload
// returns, bit for bit, in every form: fresh, appended and in place.
func TestDecoderBulkMatchesElementwise(t *testing.T) {
	e := NewEncoder()
	e.F64s(edgeFloats)
	e.Ints(edgeInts)
	payload := e.Bytes()

	ref := NewDecoder(payload)
	wantF := make([]uint64, ref.U32())
	for i := range wantF {
		wantF[i] = math.Float64bits(ref.F64())
	}
	wantI := make([]int, ref.U32())
	for i := range wantI {
		wantI[i] = ref.Int()
	}
	sameF := func(form string, got []float64) {
		t.Helper()
		if len(got) != len(wantF) {
			t.Fatalf("%s: %d values, want %d", form, len(got), len(wantF))
		}
		for i, x := range got {
			if math.Float64bits(x) != wantF[i] {
				t.Fatalf("%s: value %d is %#x, want %#x", form, i, math.Float64bits(x), wantF[i])
			}
		}
	}

	d := NewDecoder(payload)
	sameF("F64s", d.F64s())
	if got := d.Ints(); !slices.Equal(got, wantI) {
		t.Fatalf("Ints: %v, want %v", got, wantI)
	}

	d = NewDecoder(payload)
	got := d.F64sAppend([]float64{-1, -2})
	if got[0] != -1 || got[1] != -2 {
		t.Fatalf("F64sAppend rewrote its prefix: %v", got[:2])
	}
	sameF("F64sAppend", got[2:])
	if gi := d.IntsAppend([]int{9}); gi[0] != 9 || !slices.Equal(gi[1:], wantI) {
		t.Fatalf("IntsAppend: %v, want 9 then %v", gi, wantI)
	}

	d = NewDecoder(payload)
	into := make([]float64, len(wantF))
	d.F64sInto(into)
	sameF("F64sInto", into)
	if d.Err() != nil || d.Remaining() != 4+8*len(wantI) {
		t.Fatalf("F64sInto: err %v, %d bytes left", d.Err(), d.Remaining())
	}

	// Every tail length of the four-at-a-time loop.
	for n := 0; n <= 9; n++ {
		e := NewEncoder()
		e.F64s(edgeFloats[:n])
		got := NewDecoder(e.Bytes()).F64s()
		if len(got) != n {
			t.Fatalf("%d values decoded as %d", n, len(got))
		}
		for i, x := range got {
			if math.Float64bits(x) != math.Float64bits(edgeFloats[i]) {
				t.Fatalf("%d values: value %d is %#x", n, i, math.Float64bits(x))
			}
		}
	}

	// Empty decodes as nil, and onto a prefix as the prefix.
	e = NewEncoder()
	e.F64s(nil)
	e.Ints(nil)
	d = NewDecoder(e.Bytes())
	if fs, is := d.F64s(), d.Ints(); fs != nil || is != nil || d.Err() != nil {
		t.Fatalf("empty slices decoded as %v, %v (err %v)", fs, is, d.Err())
	}
}

// A tensor of the wrong stored length must fail before one value of the
// live tensor is overwritten — in both directions, and on truncation.
func TestF64sIntoRejectsLengthBeforeWriting(t *testing.T) {
	e := NewEncoder()
	e.F64s([]float64{1, 2, 3})
	payload := e.Bytes()
	for _, tc := range []struct {
		name    string
		payload []byte
		n       int
	}{
		{"stored longer", payload, 2},
		{"stored shorter", payload, 4},
		{"stored empty", []byte{0, 0, 0, 0}, 1},
		{"truncated values", payload[:len(payload)-1], 3},
		{"truncated prefix", payload[:3], 3},
	} {
		dst := make([]float64, tc.n)
		for i := range dst {
			dst[i] = -7
		}
		d := NewDecoder(tc.payload)
		d.F64sInto(dst)
		if d.Err() == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		for i, x := range dst {
			if x != -7 {
				t.Fatalf("%s: dst[%d] = %v written before the length was rejected", tc.name, i, x)
			}
		}
	}
	// A failed decoder stays failed and still writes nothing.
	d := NewDecoder([]byte{7})
	d.Bool()
	dst := []float64{-7}
	d.F64sInto(dst)
	if dst[0] != -7 {
		t.Fatal("F64sInto wrote through a failed decoder")
	}
}

// MarshalAppend into storage that held something else writes Marshal's
// bytes — nothing of the old contents survives, nothing before the
// append point moves — and a warm buffer makes the encode allocation-free.
func TestMarshalAppendReusesStorage(t *testing.T) {
	a, b := testComp("a"), testComp("node3-agent")
	b.fs = make([]float64, 5000)
	comps := []Checkpointable{a, emptyComp{"empty"}, b}
	want := Marshal(comps...)

	dirty := bytes.Repeat([]byte{0xa5}, 2*len(want))
	got := MarshalAppend(dirty[:0], comps...)
	if !bytes.Equal(got, want) {
		t.Fatal("MarshalAppend into dirty storage differs from Marshal")
	}
	if &got[0] != &dirty[0] {
		t.Fatal("MarshalAppend allocated although dst had room")
	}
	if err := Unmarshal(got, comps...); err != nil {
		t.Fatal(err)
	}

	// A smaller state encoded over a larger one leaves no tail behind.
	small := []Checkpointable{a}
	if got := MarshalAppend(got[:0], small...); !bytes.Equal(got, Marshal(small...)) {
		t.Fatal("re-encode of a smaller state over a larger container differs from Marshal")
	}

	// A true append: the prefix is kept and the CRC covers the container only.
	prefixed := MarshalAppend([]byte("prefix"), comps...)
	if string(prefixed[:6]) != "prefix" || !bytes.Equal(prefixed[6:], want) {
		t.Fatal("MarshalAppend after a prefix did not append Marshal's bytes")
	}

	buf := MarshalAppend(nil, comps...)
	if n := testing.AllocsPerRun(50, func() { buf = MarshalAppend(buf[:0], comps...) }); n != 0 {
		t.Fatalf("warm MarshalAppend allocates %v times per container, want 0", n)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("warm re-encode differs from Marshal")
	}
}

// A submitter that scribbles over every buffer Buffer hands it, encodes
// into it and submits it, against a slowed disk: every file that lands
// must still verify (a buffer recycled while Save was reading it would
// tear one, and the race detector would name the write), and the free
// list never holds more than maxFree buffers.
func TestAsyncWriterRecyclesOnlySettledBuffers(t *testing.T) {
	st, err := NewStore(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	w := NewAsyncWriter(st)
	var saves atomic.Int64
	w.save = func(seq uint64, data []byte) error {
		saves.Add(1)
		time.Sleep(200 * time.Microsecond) // the window a premature reuse would land in
		err := st.Save(seq, data)
		time.Sleep(200 * time.Microsecond)
		return err
	}
	comp := testComp("a")
	comp.fs = make([]float64, 2000)
	reused := 0
	for seq := uint64(1); seq <= 300; seq++ {
		buf := w.Buffer()
		if buf != nil {
			reused++
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = 0xee
			}
		}
		comp.i = int(seq)
		w.Submit(seq, MarshalAppend(buf[:0], comp))
		w.mu.Lock()
		if len(w.free) > maxFree {
			t.Errorf("free list holds %d buffers, want at most %d", len(w.free), maxFree)
		}
		w.mu.Unlock()
		if seq%7 == 0 {
			time.Sleep(300 * time.Microsecond) // let some writes start, some be superseded
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs, err := st.Sequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 300 {
		t.Fatalf("latest submission not persisted: %v", seqs)
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(st.Path(seq))
		if err != nil {
			t.Fatal(err)
		}
		got := &fakeComp{name: "a"}
		if err := Unmarshal(data, got); err != nil {
			t.Fatalf("checkpoint %d on disk does not verify: %v", seq, err)
		}
		if got.i != int(seq) {
			t.Fatalf("checkpoint %d holds the state of submission %d", seq, got.i)
		}
	}
	stats := w.Stats()
	if reused == 0 || stats.Dropped == 0 || stats.Writes < 2 {
		t.Fatalf("test exercised nothing: %d reuses, %d superseded, %d writes", reused, stats.Dropped, stats.Writes)
	}
	if int(saves.Load()) != stats.Writes {
		t.Fatalf("%d saves, %d counted writes", saves.Load(), stats.Writes)
	}
}
