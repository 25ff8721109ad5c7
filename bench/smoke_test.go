package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Every workload runs end to end at smoke size, traced (which runs the
// untraced part first), so a change to an API the benchmark calls breaks
// the ordinary test run, not the next measurement.
func TestEveryWorkloadRunsAndReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := &config{seed: 5, seconds: 1, smoke: true, outDir: t.TempDir(), tr: newTracer()}
			r := runWorkload(w, c, provenance{Seed: 5, Seconds: 1, Traced: true, Smoke: true})
			if r.Failed != 0 || r.Attempted < 1 || r.Digest == "" {
				t.Fatalf("attempted=%d failed=%d digest=%q: %v", r.Attempted, r.Failed, r.Digest, r.Failures)
			}
			for _, d := range endToEnd {
				if r.Values[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, r.Values[d.Name])
				}
			}
			for _, d := range boundedOn(w.name) {
				if _, ok := r.Values[d.Name]; !ok && d.Name != "p95_ms" { // too few smoke jobs for a p95
					t.Errorf("%s does not report %s", w.name, d.Name)
				}
			}
			l := r.line()
			if len(l.Metrics) != len(perLayer) {
				t.Errorf("%d metrics on the last line, want the %d per-layer ones", len(l.Metrics), len(perLayer))
			}
			known := map[string]bool{}
			for _, defs := range [][]metricDef{endToEnd, headline, perLayer} {
				for _, d := range defs {
					known[d.Name] = true
				}
			}
			for name := range r.Values {
				if !known[name] {
					t.Errorf("value %s is in no metric list, so no run would print it", name)
				}
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// The driver's form of the command: one workload, its flags with two
// dashes, the result as the last line of standard output.
func TestDriverCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fleet_shards", "--seed", "9", "--seconds", "1", "--trace", "0",
		"-smoke", "-outdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !l.Correct || l.Failed != 0 || l.Attempted < 1 || len(l.Metrics) != len(endToEnd) {
		t.Fatalf("last line %+v", l)
	}
	for _, d := range endToEnd {
		if m := l.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
}

func TestUnknownWorkloadAndBadFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pairs_reuse", "-seconds", "0"},
		{"-workload", "pairs_reuse", "-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("bench %v exited %d and printed %q", args, code, stdout.String())
		}
	}
}

// BENCHMARK.json is generated (go run ./bench -manifest); the committed
// copy must be the one this code describes, within the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, m.json()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v", d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(committed) > 64<<10 {
		t.Errorf("run_seconds %d, file of %d bytes", m.RunSeconds, len(committed))
	}
}
