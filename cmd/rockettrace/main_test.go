package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCmd runs the CLI entry point and returns stdout; stderr must stay
// empty (a drop warning in the golden path would mean the fixture
// scenario outgrew the ring).
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("rockettrace %v: exit %d, stderr: %s", args, code, errw.String())
	}
	if errw.Len() != 0 {
		t.Fatalf("rockettrace %v: unexpected stderr: %s", args, errw.String())
	}
	return out.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; run with -update if intended.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenSpansAndExport pins the exact bytes of the spans table and
// the Perfetto export over the committed tiny scenario.
func TestGoldenSpansAndExport(t *testing.T) {
	checkGolden(t, "tiny.spans.golden",
		runCmd(t, "spans", "-scenario", "testdata/tiny.yaml", "-limit", "0"))
	checkGolden(t, "tiny.trace.golden",
		runCmd(t, "export", "-scenario", "testdata/tiny.yaml"))
}

// TestExportRerunIdentical: two recordings of the same scenario export
// byte-identically (the CLI face of the determinism property).
func TestExportRerunIdentical(t *testing.T) {
	a := runCmd(t, "export", "-scenario", "testdata/tiny.yaml")
	b := runCmd(t, "export", "-scenario", "testdata/tiny.yaml")
	if a != b {
		t.Fatal("two exports of the same scenario differ")
	}
	if !strings.Contains(a, `"traceEvents":[`) || !strings.Contains(a, `"cat":"kernel"`) {
		t.Fatalf("export does not look like a span trace:\n%.400s", a)
	}
}

// TestTopAggregates: top renders a busy-time table over the recording.
func TestTopAggregates(t *testing.T) {
	out := runCmd(t, "top", "-scenario", "testdata/tiny.yaml", "-by", "kind")
	if !strings.Contains(out, "BUSY") || !strings.Contains(out, "kernel") {
		t.Fatalf("top output:\n%s", out)
	}
}

// TestTimelineGolden pins the Fig. 6 timeline bytes: the golden was
// captured from the flag-style invocation before the timeline was
// rendered from a span snapshot.
func TestTimelineGolden(t *testing.T) {
	checkGolden(t, "timeline.golden",
		runCmd(t, "timeline", "-app", "forensics", "-nodes", "2", "-n", "8", "-limit", "0"))
}

// TestUsageErrors: a bare flag-style invocation and out-of-range sizes
// exit 2 with a message on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "forensics", "-n", "8"}, "usage:"},
		{nil, "usage:"},
		{[]string{"timeline", "-n", "0"}, "-n 0"},
		{[]string{"timeline", "-n", "-3"}, "-n -3"},
		{[]string{"timeline", "-nodes", "0"}, "-nodes 0"},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("rockettrace %v: exit %d, want 2", tc.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errw.String(), tc.want) {
			t.Errorf("rockettrace %v: stdout %q, stderr %q (want %q on stderr)", tc.args, out.String(), errw.String(), tc.want)
		}
	}
}

// TestTimelineDropWarning: a ring too small for the run still prints a
// timeline, and says on stderr how many spans it lost.
func TestTimelineDropWarning(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"timeline", "-n", "8", "-cap", "16"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "spans dropped") {
		t.Errorf("no drop warning on stderr: %q", errw.String())
	}
	if rows := strings.Count(out.String(), " .. "); rows != 16 {
		t.Errorf("timeline has %d rows, want the 16 retained", rows)
	}
}
