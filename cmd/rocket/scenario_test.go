package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioRunAndValidate: validate prints one line per file; run
// writes the canonical report, byte-identical on a rerun; and a failed
// assertion makes run exit 1 after printing the verdict.
func TestScenarioRunAndValidate(t *testing.T) {
	code, out, errw := runArgs("scenario", "validate", "testdata/tiny.yaml")
	if want := "ok testdata/tiny.yaml: tiny (pairs, seed 1, 0 fault events, 0 assertions)\n"; code != 0 || out != want {
		t.Errorf("validate: exit %d, stdout %q, stderr %q; want 0 and %q", code, out, errw, want)
	}

	dir := t.TempDir()
	var docs []string
	for _, name := range []string{"a.json", "b.json"} {
		path := filepath.Join(dir, name)
		code, out, errw := runArgs("scenario", "run", "-report", path, "testdata/tiny.yaml")
		if code != 0 || !strings.HasSuffix(out, "report: "+path+"\n") {
			t.Fatalf("run: exit %d, stderr %q, stdout:\n%s", code, errw, out)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(doc))
	}
	if docs[0] != docs[1] || !strings.Contains(docs[0], `"scenario": "tiny"`) {
		t.Errorf("reports differ or are not tiny's:\n%s\n%s", docs[0], docs[1])
	}

	failing := filepath.Join(dir, "failing.yaml")
	tiny, err := os.ReadFile("testdata/tiny.yaml")
	if err != nil {
		t.Fatal(err)
	}
	assert := "\nassertions:\n  - assert: metric\n    name: pairs\n    max: 1\n"
	if err := os.WriteFile(failing, append(tiny, assert...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runArgs("scenario", "run", "-q", failing)
	if code != 1 || !strings.HasPrefix(out, "FAIL: tiny") || !strings.Contains(out, "  FAIL ") {
		t.Errorf("failing assertion: exit %d, stdout:\n%s", code, out)
	}
	code, _, errw = runArgs("scenario", "validate", failing, "does-not-exist.yaml")
	if code != 1 || !strings.Contains(errw, "INVALID does-not-exist.yaml") {
		t.Errorf("validate of a missing file: exit %d, stderr %q", code, errw)
	}
}

// TestScenarioReportCollision: two scenarios with one name would write
// one report file; run refuses before running either, naming both files.
func TestScenarioReportCollision(t *testing.T) {
	dir := t.TempDir()
	tiny, err := os.ReadFile("testdata/tiny.yaml")
	if err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a.yaml"), filepath.Join(dir, "b.yaml")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, tiny, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reports := filepath.Join(dir, "reports")
	code, out, errw := runArgs("scenario", "run", "-report", reports, a, b)
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing", code, out)
	}
	if !strings.Contains(errw, a) || !strings.Contains(errw, b) || !strings.Contains(errw, filepath.Join(reports, "tiny.json")) {
		t.Errorf("stderr %q does not name both files and the report", errw)
	}
	if _, err := os.Stat(reports); !os.IsNotExist(err) {
		t.Errorf("a report directory was created: %v", err)
	}
}
