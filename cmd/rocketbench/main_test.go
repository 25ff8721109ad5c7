package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: out-of-range numbers, unknown flags and unknown
// experiments exit 2 with a message on stderr and nothing on stdout,
// before any experiment runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1", "-scale", "0"}, "-scale 0"},
		{[]string{"-exp", "table1", "-scale", "-5"}, "-scale -5"},
		{[]string{"-exp", "table1", "-workers", "0"}, "-workers 0"},
		{[]string{"-exp", "fig99"}, "unknown experiment"},
		{[]string{"-json", "ci"}, "not defined: -json"},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("rocketbench %v: exit %d, want 2", tc.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errw.String(), tc.want) {
			t.Errorf("rocketbench %v: stdout %q, stderr %q (want %q on stderr)", tc.args, out.String(), errw.String(), tc.want)
		}
	}
}

// TestRunPrintsExperiment: a valid invocation prints the experiment's
// report under its header.
func TestRunPrintsExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "table1", "-scale", "50"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.HasPrefix(out.String(), "=== table1 (Table 1)") || !strings.Contains(out.String(), "no. of pairs") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}
