package report

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", 2.5) // comma must be quoted
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `"x,y"`) {
		t.Fatalf("CSV quoting: %q", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Fatalf("CSV header: %q", got)
	}
	if tb.Len() != 1 {
		t.Fatal("Len")
	}
}

func TestFloatFormatting(t *testing.T) {
	if trimFloat(3) != "3" {
		t.Fatalf("integer float = %q", trimFloat(3))
	}
	if trimFloat(3.14159) != "3.142" {
		t.Fatalf("float = %q", trimFloat(3.14159))
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length %d", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat series = %q", flat)
		}
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.985) != " 98.5%" {
		t.Fatalf("Percent = %q", Percent(0.985))
	}
}
