package core

import (
	goruntime "runtime"
	"testing"

	"rocket/internal/apps/forensics"
)

// The allocation gate of the per-pair path: the forensics cost model on
// four nodes at n and at 2n items, every heap object counted around each
// Run. Set-up (cluster, caches, pools, event queue) and the per-item
// traffic of loads and lookups grow with n or not at all, pairs grow with
// n², so the difference quotient between the two runs is what one more
// pair costs: at most one object and 48 bytes, where the closure chains
// this state machine replaced cost 15 and 611.
func TestAllocationsPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	measure := func(n int) (mallocs, bytes, pairs float64) {
		cfg := Config{App: forensics.New(forensics.Params{N: n, Seed: 1}), Cluster: newCluster(t, 4), Seed: 1, DistCache: true}
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		m, err := Run(cfg)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), float64(m.Pairs)
	}
	const n = 200
	m1, b1, p1 := measure(n)
	m2, b2, p2 := measure(2 * n)
	perPair, bytesPerPair := (m2-m1)/(p2-p1), (b2-b1)/(p2-p1)
	t.Logf("n=%d: %.0f objects, %.0f bytes, %.0f pairs; n=%d: %.0f, %.0f, %.0f; per added pair %.3f objects, %.1f bytes",
		n, m1, b1, p1, 2*n, m2, b2, p2, perPair, bytesPerPair)
	if perPair > 1.0 {
		t.Errorf("%.3f heap objects per added pair, want <= 1.0", perPair)
	}
	if bytesPerPair > 48 {
		t.Errorf("%.1f heap bytes per added pair, want <= 48", bytesPerPair)
	}
}
