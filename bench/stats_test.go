package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		samples []float64
		want    dist
	}{
		{[]float64{5, 1, 3, 2, 4}, dist{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}},
		{[]float64{4, 1, 3, 2}, dist{N: 4, Min: 1, Q1: 1.75, Median: 2.5, Q3: 3.25, Max: 4}},
		{[]float64{7}, dist{N: 1, Min: 7, Q1: 7, Median: 7, Q3: 7, Max: 7}},
	}
	for _, c := range cases {
		first := c.samples[0]
		if d := summarize(c.samples); d != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.samples, d, c.want)
		}
		if c.samples[0] != first {
			t.Errorf("summarize reordered its input %v", c.samples)
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("summarize(nil) = %+v, want zero", d)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p95 of 199 samples leaves 9 beyond it: one short.
	if v, err := percentile(seq(199), 0.95); err == nil {
		t.Errorf("p95 of 199 samples = %v, want a refusal", v)
	}
	// 200 samples leave exactly ten beyond the 190th.
	v, err := percentile(seq(200), 0.95)
	if err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples was not refused")
	}
}

func TestOverheadAndWorseBy(t *testing.T) {
	if got := overhead(100, 80, true); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("throughput 100 -> 80 traced: overhead %v, want 0.25", got)
	}
	if got := overhead(10, 12, false); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("latency 10 -> 12 traced: overhead %v, want 0.2", got)
	}
	higher := metricDef{Better: "higher"}
	lower := metricDef{Better: "lower"}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90: worse by %v, want 0.1", got)
	}
	if got := worseBy(lower, 100, 90); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 90: worse by %v, want -0.1", got)
	}
	if got := worseBy(lower, 0, 0.5); got != 0.5 {
		t.Errorf("from zero the change is absolute: got %v", got)
	}
}

func TestCompareSetsFlagsExcessAndDigest(t *testing.T) {
	mk := func(rate float64, digest string) setRecord {
		r := newResult("pairs_reuse", provenance{Seed: 1})
		r.Values["pairs_per_s"] = rate
		r.Digest = digest
		return setRecord{Results: map[string]*result{"pairs_reuse": r}}
	}
	if _, excess := compareSets(mk(100, "a"), mk(80, "a")); excess {
		t.Error("a 20% drop inside the 25% bound was flagged")
	}
	diffs, excess := compareSets(mk(100, "a"), mk(70, "a"))
	if !excess || len(diffs) != 1 || !diffs[0].Excess {
		t.Errorf("a 30%% drop past the 25%% bound was not flagged: %+v", diffs)
	}
	if _, excess := compareSets(mk(100, "a"), mk(100, "b")); !excess {
		t.Error("differing digests at one seed were not flagged")
	}
}
