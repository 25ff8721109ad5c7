package main

import (
	"strings"
	"testing"
)

// TestValidateRejectsBadOptions: every option value buildSpec or the load
// loops cannot run with is refused up front, and the defaults pass.
func TestValidateRejectsBadOptions(t *testing.T) {
	good := options{mode: "closed", rate: 20, jobs: 32, clients: 8, items: 12,
		maxNodes: 2, apps: []string{"forensics", "microscopy"}, tenants: 3}
	if err := good.validate(); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*options)
		want string
	}{
		{"zero jobs", func(o *options) { o.jobs = 0 }, "must be positive"},
		{"zero rate", func(o *options) { o.rate = 0 }, "must be positive"},
		{"zero max-nodes", func(o *options) { o.maxNodes = 0 }, "-max-nodes 0"},
		{"negative items", func(o *options) { o.items = -2 }, "-items -2"},
		{"unknown mode", func(o *options) { o.mode = "burst" }, `-mode "burst"`},
		{"empty apps", func(o *options) { o.apps = []string{""} }, "empty application"},
		{"trailing comma", func(o *options) { o.apps = []string{"forensics", ""} }, "empty application"},
	} {
		o := good
		tc.edit(&o)
		if err := o.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRunValidatesBeforeStarting: a bad option fails the run before the
// scenario file is read or an in-process rocketd starts.
func TestRunValidatesBeforeStarting(t *testing.T) {
	err := run([]string{"-local", "-max-nodes", "0", "-scenario", "does-not-exist.yaml"})
	if err == nil || !strings.Contains(err.Error(), "-max-nodes 0") {
		t.Fatalf("error %v, want the -max-nodes refusal", err)
	}
}
