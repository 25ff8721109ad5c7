package report

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("a-very-long-name", 123456.7)
	out := tb.String()
	if !strings.Contains(out, "## Demo") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "alpha ") {
		t.Errorf("row not aligned:\n%s", out)
	}
	if !strings.Contains(out, "123457") {
		t.Errorf("large float not rounded to integer: %s", out)
	}
}

// TestMultiByteCells: a column's width counts bytes and its padding counts
// runes, as "%-*s" over byte widths does, so a "±" cell renders as it
// always has.
func TestMultiByteCells(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1±2", "x")
	tb.AddRow("1", "y")
	want := fmt.Sprintf("%-*s  b\n%s  -\n%-*s  x\n%-*s  y\n", 4, "a", "----", 4, "1±2", 4, "1")
	if got := tb.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.1234: "0.123",
		12.34:  "12.3",
		9999.9: "10000",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestValueTypes: each value type renders as the format it stands for,
// and a table cell keeps the value itself.
func TestValueTypes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{Percent(100.24), "100.2%"},
		{Ratio(15.416), "15.42x"},
		{FineRatio(1.0905), "1.091x"},
		{Hash(0xb3f26ebbc61f796d), "b3f26ebbc61f796d"},
		{Hash(0x2a), "000000000000002a"},
	} {
		tb := NewTable("", "v")
		tb.AddRow(c.v)
		if got := tb.CSV(); got != "v\n"+c.want+"\n" {
			t.Errorf("%#v renders %q, want %q", c.v, got, c.want)
		}
		if tb.Rows[0][0] != c.v {
			t.Errorf("cell holds %#v, want %#v", tb.Rows[0][0], c.v)
		}
	}
}

// TestAddRowArity: a row with more or fewer cells than headers panics
// with the table's title and both counts.
func TestAddRowArity(t *testing.T) {
	for _, cells := range [][]any{{1, 2, 3}, {1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"Demo"`) || !strings.Contains(msg, fmt.Sprintf("%d cells, 2 headers", len(cells))) {
					t.Errorf("%d cells: panic %q, want the title and both counts", len(cells), msg)
				}
			}()
			NewTable("Demo", "a", "b").AddRow(cells...)
		}()
	}
}

// TestRenderRowArity: a row appended to Rows directly, past AddRow's
// check, panics when the table renders instead of indexing past its
// columns.
func TestRenderRowArity(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"Demo": row of 3 cells, 2 headers`) {
			t.Errorf("panic %q, want the title and both counts", msg)
		}
	}()
	tb := NewTable("Demo", "a", "b")
	tb.Rows = append(tb.Rows, []any{1, 2, 3})
	_ = tb.String()
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	if csv != "a,b\n1,2.500\n" {
		t.Fatalf("csv = %q", csv)
	}
}

// TestCSVQuotes: a cell holding a comma or a quote is quoted, so a
// scenario named `a, "b"` stays one field.
func TestCSVQuotes(t *testing.T) {
	tb := NewTable("", "scenario", "metric", "value")
	tb.AddRow(`a, "b"`, "events", 3)
	if got, want := tb.CSV(), "scenario,metric,value\n\"a, \"\"b\"\"\",events,3\n"; got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}
