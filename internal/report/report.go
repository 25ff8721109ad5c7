// Package report renders aligned text tables and CSV series for the
// experiment harness, so every bench prints the same rows the paper's
// tables and figures report.
package report

import (
	"encoding/csv"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table. Rows keep the values they
// were given, so a caller can read a cell back as a number; each is
// formatted only when the table renders.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]any
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of one value per header. A row of any other length
// is a programming error, and panics.
func (t *Table) AddRow(values ...any) {
	t.checkRow(values)
	t.Rows = append(t.Rows, values)
}

// checkRow panics unless row has one value per header.
func (t *Table) checkRow(row []any) {
	if len(row) != len(t.Headers) {
		panic(fmt.Sprintf("report: table %q: row of %d cells, %d headers", t.Title, len(row), len(t.Headers)))
	}
}

// Percent is a percentage (not a fraction), rendered to one decimal.
type Percent float64

func (p Percent) String() string { return fmt.Sprintf("%.1f%%", float64(p)) }

// Ratio is a speedup or slowdown factor, rendered to two decimals.
type Ratio float64

func (r Ratio) String() string { return fmt.Sprintf("%.2fx", float64(r)) }

// FineRatio is a factor close to 1, rendered to three decimals.
type FineRatio float64

func (r FineRatio) String() string { return fmt.Sprintf("%.3fx", float64(r)) }

// Hash is a 64-bit fingerprint, rendered as 16 hex digits.
type Hash uint64

func (h Hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// format renders one cell: floats by magnitude, everything else with %v.
func format(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000 || x <= -1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10 || x <= -10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// cells returns the headers and the formatted rows. A row appended to
// Rows without AddRow is held to the same length check.
func (t *Table) cells() [][]string {
	out := make([][]string, 0, 1+len(t.Rows))
	out = append(out, t.Headers)
	for _, row := range t.Rows {
		t.checkRow(row)
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = format(v)
		}
		out = append(out, cells)
	}
	return out
}

// String renders the table: the title, the header line, a separator and
// the rows.
func (t *Table) String() string {
	rows := t.cells()
	widths := make([]int, len(t.Headers))
	size := len("## \n") + len(t.Title)
	for i := range widths {
		for _, cells := range rows {
			widths[i] = max(widths[i], len(cells[i]))
		}
		size += (2 + len(rows)) * (widths[i] + len("  "))
	}
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	buf := make([]byte, 0, size)
	if t.Title != "" {
		buf = append(append(append(buf, "## "...), t.Title...), '\n')
	}
	for r, cells := range rows {
		buf = appendLine(buf, cells, widths)
		if r == 0 {
			buf = appendLine(buf, sep, widths)
		}
	}
	return string(buf)
}

// appendLine appends cells to buf, two spaces apart, without trailing
// spaces, and ends the line. A column's width counts bytes and its
// padding counts runes (as "%-*s" pads), so a cell holding a multi-byte
// rune such as "±" stays short of the column's edge.
func appendLine(buf []byte, cells []string, widths []int) []byte {
	start := len(buf)
	for i, cell := range cells {
		if i > 0 {
			buf = append(buf, "  "...)
		}
		buf = append(buf, cell...)
		for range widths[i] - utf8.RuneCountInString(cell) {
			buf = append(buf, ' ')
		}
	}
	for len(buf) > start && buf[len(buf)-1] == ' ' {
		buf = buf[:len(buf)-1]
	}
	return append(buf, '\n')
}

// CSV renders comma-separated values (headers + rows), for plotting,
// quoting a cell as RFC 4180 asks (one holding a comma, a quote or a
// line break).
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.WriteAll(t.cells()) // a strings.Builder never fails a write
	return b.String()
}
