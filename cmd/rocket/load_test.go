package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestValidateRejectsBadOptions: every option value buildSpec or the load
// loops cannot run with is refused up front, and the defaults pass.
func TestValidateRejectsBadOptions(t *testing.T) {
	good := options{mode: "closed", rate: 20, jobs: 32, clients: 8, items: 12,
		maxNodes: 2, apps: []string{"forensics", "microscopy"}, tenants: 3, timeout: 2 * time.Minute}
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
		{"zero timeout", func(o *options) { o.timeout = 0 }, "-timeout 0s"},
		{"negative fault rate", func(o *options) { o.faultRate = -0.1 }, "-fault-rate -0.1"},
		{"fault rate above one", func(o *options) { o.faultRate = 1.01 }, "-fault-rate 1.01"},
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
	code, out, errw := runArgs("load", "-local", "-max-nodes", "0", "-scenario", "does-not-exist.yaml")
	if code != 2 || out != "" || !strings.Contains(errw, "-max-nodes 0") || strings.Contains(errw, "in-process") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and only the -max-nodes refusal", code, out, errw)
	}
}

// TestLoadLocal: closed-loop load against an in-process rocketd, every
// job carrying a scenario's fault schedule, completes every job.
func TestLoadLocal(t *testing.T) {
	code, out, errw := runArgs("load", "-local", "-jobs", "4", "-clients", "2", "-items", "8",
		"-max-nodes", "4", "-scenario", "../../scenarios/crash-recovery.yaml")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "faults from scenario") {
		t.Errorf("stderr does not report the scenario's faults: %s", errw)
	}
	if !strings.HasPrefix(out, "rocket load: closed mode, 4 jobs") || !strings.Contains(out, "done") {
		t.Errorf("unexpected report:\n%s", out)
	}
}

// TestPercentileInterpolates: the printed p50 and p95 interpolate between
// the samples around rank p·(n−1), as the repository benchmark's
// quantiles do, instead of truncating to the lower one.
func TestPercentileInterpolates(t *testing.T) {
	for _, tc := range []struct {
		sorted  []float64
		p, want float64
	}{
		{[]float64{5}, 0.95, 5},
		{[]float64{1, 2}, 0.50, 1.5},
		{[]float64{1, 2}, 0.95, 1.95},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.50, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.95, 7.65},
	} {
		if got := percentile(tc.sorted, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%.0f of %d samples = %v, want %v", 100*tc.p, len(tc.sorted), got, tc.want)
		}
	}
}
