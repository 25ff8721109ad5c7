package fleet

import (
	"strings"
	"testing"

	"rocket/internal/fault"
	"rocket/internal/obs"
)

// traceOf runs cfg with a fresh flight recorder and returns its Perfetto
// export.
func traceOf(t *testing.T, cfg Config) string {
	t.Helper()
	rec := obs.New(1, 0)
	cfg.Spans = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("flight recorder wrapped (%d dropped)", snap.Dropped)
	}
	var b strings.Builder
	if err := obs.WriteTrace(&b, snap, obs.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFleetTraceWidthInvariance is the observability determinism
// property: the exported span timeline is byte-identical across reruns
// and whatever the ignored Config.Shards says, with churn exercising the
// join and preemption recording sites.
func TestFleetTraceWidthInvariance(t *testing.T) {
	mk := func(shards int) Config {
		cfg := smallConfig()
		cfg.Shards = shards
		cfg.Elastic = &fault.Elasticity{
			InitialNodes:    48,
			Arrival:         fault.ArrivalLinear,
			PreemptFraction: 0.1,
		}
		return cfg
	}
	base := traceOf(t, mk(1))
	for _, cat := range []string{`"cat":"steal"`, `"name":"join"`, `"name":"preempt"`} {
		if !strings.Contains(base, cat) {
			t.Fatalf("trace records no %s spans", cat)
		}
	}
	for _, k := range []int{1, 2, 4, 8} {
		if got := traceOf(t, mk(k)); got != base {
			t.Fatalf("Shards=%d trace diverged from the first run (lengths %d vs %d)", k, len(got), len(base))
		}
	}
}
