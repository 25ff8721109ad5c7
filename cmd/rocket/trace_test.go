package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runTrace runs `rocket trace args...` and returns stdout; stderr must
// stay empty (a drop warning in the golden path would mean the fixture
// scenario outgrew the ring).
func runTrace(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errw := runArgs(append([]string{"trace"}, args...)...)
	if code != 0 {
		t.Fatalf("rocket trace %v: exit %d, stderr: %s", args, code, errw)
	}
	if errw != "" {
		t.Fatalf("rocket trace %v: unexpected stderr: %s", args, errw)
	}
	return out
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
		runTrace(t, "spans", "-scenario", "testdata/tiny.yaml", "-limit", "0"))
	checkGolden(t, "tiny.trace.golden",
		runTrace(t, "export", "-scenario", "testdata/tiny.yaml"))
}

// TestExportRerunIdentical: two recordings of the same scenario export
// byte-identically (the CLI face of the determinism property), the
// second through -o.
func TestExportRerunIdentical(t *testing.T) {
	a := runTrace(t, "export", "-scenario", "testdata/tiny.yaml")
	path := filepath.Join(t.TempDir(), "tiny.json")
	if out := runTrace(t, "export", "-scenario", "testdata/tiny.yaml", "-o", path); out != "" {
		t.Fatalf("export -o also wrote to stdout: %.200s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != string(b) {
		t.Fatal("two exports of the same scenario differ")
	}
	if !strings.Contains(a, `"traceEvents":[`) || !strings.Contains(a, `"cat":"kernel"`) {
		t.Fatalf("export does not look like a span trace:\n%.400s", a)
	}
}

// TestTopAggregates: top renders a busy-time table over the recording.
func TestTopAggregates(t *testing.T) {
	out := runTrace(t, "top", "-scenario", "testdata/tiny.yaml", "-by", "kind")
	if !strings.Contains(out, "BUSY") || !strings.Contains(out, "kernel") {
		t.Fatalf("top output:\n%s", out)
	}
}

// TestTimelineGolden pins the Fig. 6 timeline bytes: the golden was
// captured from the flag-style invocation before the timeline was
// rendered from a span snapshot.
func TestTimelineGolden(t *testing.T) {
	checkGolden(t, "timeline.golden",
		runTrace(t, "timeline", "-app", "forensics", "-nodes", "2", "-n", "8", "-limit", "0"))
}

// TestTimelineDropWarning: a ring too small for the run still prints a
// timeline, and says on stderr how many spans it lost.
func TestTimelineDropWarning(t *testing.T) {
	code, out, errw := runArgs("trace", "timeline", "-n", "8", "-cap", "16")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "spans dropped") {
		t.Errorf("no drop warning on stderr: %q", errw)
	}
	if rows := strings.Count(out, " .. "); rows != 16 {
		t.Errorf("timeline has %d rows, want the 16 retained", rows)
	}
}

// TestTraceUsageErrors: `rocket trace` refuses a missing or unknown
// subcommand, an out-of-range -n or -nodes, an unknown application or
// -by key, a scenario that does not load and a stray operand.
func TestTraceUsageErrors(t *testing.T) {
	checkUsageErrors(t, []usageError{
		{[]string{"trace"}, "usage: rocket trace <command>"},
		{[]string{"trace", "-app", "forensics", "-n", "8"}, `unknown command "-app"`},
		{[]string{"trace", "timeline", "-n", "0"}, "-n 0"},
		{[]string{"trace", "timeline", "-n", "-3"}, "-n -3"},
		{[]string{"trace", "timeline", "-nodes", "0"}, "-nodes 0"},
		{[]string{"trace", "timeline", "-app", "genomics"}, `unknown application "genomics"`},
		{[]string{"trace", "top", "-by", "node"}, `-by "node"`},
		{[]string{"trace", "spans", "-scenario", "does-not-exist.yaml"}, "does-not-exist.yaml"},
		{[]string{"trace", "export", "-scenario", "testdata/tiny.yaml", "out.json"}, `unexpected argument "out.json"`},
	})
}
