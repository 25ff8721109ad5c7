package report

import (
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

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	if csv != "a,b\n1,2.500\n" {
		t.Fatalf("csv = %q", csv)
	}
}
