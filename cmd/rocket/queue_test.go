package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueueManifestAndReplay: -example prints the manifest; the policy
// override changes the schedule (the example exists to show that); a
// replay of the same manifest prints the same report; -json is one JSON
// document, identical on a rerun; and -store saves the store back.
func TestQueueManifestAndReplay(t *testing.T) {
	dir := t.TempDir()
	code, example, errw := runArgs("queue", "-example")
	if code != 0 || example != exampleManifest || errw != "" {
		t.Fatalf("-example: exit %d, stderr %q, stdout:\n%s", code, errw, example)
	}
	manifest := filepath.Join(dir, "jobs.json")
	if err := os.WriteFile(manifest, []byte(example), 0o644); err != nil {
		t.Fatal(err)
	}

	reports := map[string]string{}
	for _, args := range [][]string{
		{"queue", "-manifest", manifest, "-policy", "fifo"},
		{"queue", "-manifest", manifest},
		{"queue", "-replay", manifest},
		{"queue", "-replay", manifest, "-json"},
		{"queue", "-replay", manifest, "-json"},
		{"queue", "-manifest", manifest, "-store", filepath.Join(dir, "store.json")},
	} {
		code, out, errw := runArgs(args...)
		if code != 0 || errw != "" {
			t.Fatalf("rocket %q: exit %d, stderr: %s", args, code, errw)
		}
		key := strings.Join(args[1:], " ")
		if prev, ok := reports[key]; ok && prev != out {
			t.Errorf("rocket %q: a rerun printed different bytes", args)
		}
		reports[key] = out
	}
	fifo, fair := reports["-manifest "+manifest+" -policy fifo"], reports["-manifest "+manifest]
	if !strings.Contains(fifo, "policy fifo") || fifo == fair {
		t.Errorf("-policy fifo did not change the schedule:\n%s", fifo)
	}
	if replay := reports["-replay "+manifest]; replay != fair {
		t.Errorf("replay of an ordered manifest differs from running it:\n%s\nwant:\n%s", replay, fair)
	}
	if !json.Valid([]byte(reports["-replay "+manifest+" -json"])) {
		t.Errorf("-json output is not JSON:\n%s", reports["-replay "+manifest+" -json"])
	}
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		t.Errorf("-store: %v", err)
	}
}

// TestQueueReplaySortsArrivals: a log whose entries are out of arrival
// order is re-sorted with a warning, and replays like the sorted log.
func TestQueueReplaySortsArrivals(t *testing.T) {
	dir := t.TempDir()
	lines := strings.Split(exampleManifest, "\n")
	var small0, small3 int
	for i, l := range lines {
		switch {
		case strings.Contains(l, `"small0"`):
			small0 = i
		case strings.Contains(l, `"small3"`):
			small3 = i
		}
	}
	lines[small0], lines[small3] = strings.TrimSuffix(lines[small3], ",")+",", strings.TrimSuffix(lines[small0], ",")
	sorted, shuffled := filepath.Join(dir, "sorted.json"), filepath.Join(dir, "shuffled.json")
	if err := os.WriteFile(sorted, []byte(exampleManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shuffled, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, want, _ := runArgs("queue", "-replay", sorted)
	code, got, errw := runArgs("queue", "-replay", shuffled)
	if code != 0 || !strings.Contains(errw, "re-sorted into arrival order") {
		t.Fatalf("exit %d, stderr %q; want 0 and the re-sort warning", code, errw)
	}
	if got != want {
		t.Errorf("shuffled log replays differently:\n%s\nwant:\n%s", got, want)
	}
}
