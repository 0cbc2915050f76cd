package loadgen

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFixed(t *testing.T) {
	var p Pattern = Fixed(123)
	if p.RPS(0) != 123 || p.RPS(9999) != 123 {
		t.Fatal("Fixed must be constant")
	}
}

func TestStepWiseLadder(t *testing.T) {
	s := NewStepWise(100, 500, 0.2, 200)
	levels := s.levels
	if levels[0] != 100 {
		t.Fatalf("ladder start = %v", levels[0])
	}
	// Ascend strictly to the max, then descend.
	peak := 0
	for i := 1; i < len(levels); i++ {
		if levels[i] > levels[peak] {
			peak = i
		}
	}
	if levels[peak] != 500 {
		t.Fatalf("peak = %v", levels[peak])
	}
	for i := 1; i <= peak; i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("not ascending at %d: %v", i, levels)
		}
	}
	for i := peak + 1; i < len(levels); i++ {
		if levels[i] >= levels[i-1] {
			t.Fatalf("not descending at %d: %v", i, levels)
		}
	}
	// Steps change exactly every PeriodS seconds.
	if s.RPS(0) != s.RPS(199) {
		t.Fatal("load must hold within a period")
	}
	if s.RPS(199) == s.RPS(200) {
		t.Fatal("load must change at the period boundary")
	}
	// Cycles.
	total := len(levels) * 200
	if s.RPS(5) != s.RPS(total+5) {
		t.Fatal("pattern must cycle")
	}
}

func TestStepWiseChangeFactor(t *testing.T) {
	s := NewStepWise(100, 1000, 0.2, 100)
	lv := s.levels
	for i := 1; i < len(lv) && lv[i] > lv[i-1]; i++ {
		ratio := lv[i] / lv[i-1]
		if ratio > 1.2+1e-9 {
			t.Fatalf("ascending ratio %v exceeds change factor", ratio)
		}
	}
}

func TestStepWiseInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStepWise(0, 100, 0.2, 10)
}

func TestDiurnal(t *testing.T) {
	d := Diurnal{MinRPS: 100, MaxRPS: 300, PeriodS: 86400}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for ts := 0; ts < 86400; ts += 600 {
		v := d.RPS(ts)
		if v < 100-1e-9 || v > 300+1e-9 {
			t.Fatalf("RPS(%d) = %v out of range", ts, v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > 105 || hi < 295 {
		t.Fatalf("diurnal range [%v, %v] too narrow", lo, hi)
	}
	// Periodicity.
	if math.Abs(d.RPS(100)-d.RPS(100+86400)) > 1e-9 {
		t.Fatal("diurnal must repeat daily")
	}
	flat := Diurnal{MinRPS: 50, MaxRPS: 60, PeriodS: 0}
	if flat.RPS(10) != 50 {
		t.Fatal("zero period falls back to MinRPS")
	}
}

func TestTraceReplay(t *testing.T) {
	tr := NewTrace([]float64{10, 20, 30}, false)
	if tr.Len() != 3 {
		t.Fatal("Len")
	}
	if tr.RPS(0) != 10 || tr.RPS(2) != 30 {
		t.Fatal("replay")
	}
	if tr.RPS(99) != 30 {
		t.Fatal("hold final value")
	}
	if tr.RPS(-1) != 10 {
		t.Fatal("negative time clamps")
	}
	loop := NewTrace([]float64{10, 20, 30}, true)
	if loop.RPS(4) != 20 {
		t.Fatal("loop")
	}
}

func TestReadTraceSingleColumn(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("rps\n100\n200\n300\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.RPS(1) != 200 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestReadTraceTwoColumns(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("t,rps\n0,100\n1,150\n2,125\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RPS(2) != 125 || tr.RPS(3) != 100 {
		t.Fatal("two-column trace")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantErr string
		// badRPS marks rows rejected for an unusable load value; those
		// must match the named ErrBadRPS, structural errors must not.
		badRPS bool
	}{
		{"empty", "", "empty trace", false},
		{"header only", "rps\n", "empty trace", false},
		{"non-ascending timestamps", "t,rps\n1,100\n1,200", "ascend", false},
		{"bad rps", "t,rps\n0,abc", "bad rps", false},
		{"negative", "rps\n-5", "negative rps", true},
		{"non-numeric after data", "rps\n100\ngarbage", "non-numeric", false},
		{"NaN rps", "rps\n100\nNaN", "NaN", true},
		{"infinite rps", "rps\n100\nInf", "infinite", true},
		{"negative infinity", "rps\n100\n-Inf", "infinite", true},
		{"NaN rps two-column", "t,rps\n0,100\n1,nan", "NaN", true},
		{"infinite rps two-column", "t,rps\n0,100\n1,+Inf", "infinite", true},
		{"negative two-column", "t,rps\n0,100\n1,-3", "negative rps", true},
		{"NaN timestamp", "t,rps\nNaN,100", "non-finite timestamp", false},
		{"infinite timestamp", "t,rps\nInf,100", "non-finite timestamp", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.input), false)
			if err == nil {
				t.Fatalf("input %q should error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if got := errors.Is(err, ErrBadRPS); got != tc.badRPS {
				t.Fatalf("errors.Is(err, ErrBadRPS) = %v, want %v for %q", got, tc.badRPS, err)
			}
		})
	}
}
