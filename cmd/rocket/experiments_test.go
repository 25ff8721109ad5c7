package main

import (
	"strings"
	"testing"
)

// TestRunPrintsExperiment: a valid invocation prints the experiment's
// report under its header, and -list prints every experiment.
func TestRunPrintsExperiment(t *testing.T) {
	code, out, errw := runArgs("experiments", "-exp", "table1", "-scale", "50")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.HasPrefix(out, "=== table1 (Table 1)") || !strings.Contains(out, "no. of pairs") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	code, out, errw = runArgs("experiments", "-list")
	if code != 0 || errw != "" {
		t.Fatalf("-list: exit %d, stderr: %s", code, errw)
	}
	if !strings.HasPrefix(out, "available experiments:") || !strings.Contains(out, "queue-scaling") {
		t.Fatalf("-list output:\n%s", out)
	}
}

// TestExperimentsUsageErrors: `rocket experiments` refuses a missing
// -exp, an out-of-range -scale or -workers, an unknown experiment, an
// unknown flag and a stray operand before it runs anything.
func TestExperimentsUsageErrors(t *testing.T) {
	checkUsageErrors(t, []usageError{
		{[]string{"experiments"}, "-exp or -list is required"},
		{[]string{"experiments", "-exp", "table1", "-scale", "0"}, "-scale 0"},
		{[]string{"experiments", "-exp", "table1", "-scale", "-5"}, "-scale -5"},
		{[]string{"experiments", "-exp", "table1", "-workers", "0"}, "-workers 0"},
		{[]string{"experiments", "-exp", "fig99"}, "unknown experiment"},
		{[]string{"experiments", "-json", "ci"}, "not defined: -json"},
		{[]string{"experiments", "-exp", "table1", "fig6"}, `unexpected argument "fig6"`},
	})
}
