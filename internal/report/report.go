// Package report renders experiment results for humans and machines:
// CSV tables (encoding/csv) for plotting outside the repository, and
// compact sparklines used by the command-line tools to visualise traces
// without any graphics dependency.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple CSV table.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; values are formatted with %v (floats with %g).
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		case float32:
			row[i] = trimFloat(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e9 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// WriteCSV renders the table as RFC 4180 CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a compact unicode sparkline, scaling
// min..max across the eight block heights. Empty input yields "".
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if hi > lo {
			idx = int((x - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Percent formats a fraction as a fixed-width percentage.
func Percent(frac float64) string { return fmt.Sprintf("%5.1f%%", frac*100) }
