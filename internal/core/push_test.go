package core

import (
	"testing"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/phylo"
)

// What the engine's queue does per pair, pinned exactly: every event a run
// schedules either is ordered through the heap or, scheduled for the
// instant it is pushed at, joins the now-lane. The two regimes of
// TestAllocationsPerPair differ in how many events a pair costs, not in
// where most of them go: completions handed on at the instant they
// happen (grants, wake-ups, deferred continuations) are the larger half of
// both, and only what takes virtual time — kernels, copies, transfers,
// loads — pays for a place in the heap. A change in these counts is a
// change in what the runtime schedules, or in what the lane catches.
func TestPushCountsPerPair(t *testing.T) {
	for _, c := range []struct {
		name              string
		cfg               Config
		pairs, heap, lane uint64
		maxHeapPerEvent   float64
	}{
		{"reuse", Config{App: forensics.New(forensics.Params{N: 200, Seed: 1}), Cluster: newCluster(t, 4), Seed: 1, DistCache: true},
			19900, 25054, 87286, 0.25},
		{"thrash", Config{App: phylo.New(phylo.Params{N: 160, Seed: 1}), Cluster: newCluster(t, 16), Seed: 1,
			DistCache: true, DeviceSlots: 4, HostSlots: 8, Hops: 3},
			12720, 87406, 115183, 0.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pairs := float64(m.Pairs)
			t.Logf("%d pairs, %d events: %d heap pushes (%.3f per pair), %d lane pushes (%.3f per pair), lane share %.3f",
				m.Pairs, m.Events, m.HeapPushes, float64(m.HeapPushes)/pairs, m.LanePushes, float64(m.LanePushes)/pairs,
				float64(m.LanePushes)/float64(m.HeapPushes+m.LanePushes))
			if m.Pairs != c.pairs || m.HeapPushes != c.heap || m.LanePushes != c.lane {
				t.Errorf("%d pairs, %d heap pushes, %d lane pushes; want %d, %d, %d", m.Pairs, m.HeapPushes, m.LanePushes, c.pairs, c.heap, c.lane)
			}
			// Everything pushed was dispatched, and the lane took at least
			// its half.
			if m.HeapPushes+m.LanePushes != m.Events {
				t.Errorf("%d pushes, %d events dispatched", m.HeapPushes+m.LanePushes, m.Events)
			}
			if m.LanePushes < m.HeapPushes {
				t.Errorf("lane share %.3f, want >= 0.5", float64(m.LanePushes)/float64(m.Events))
			}
			if got := float64(m.HeapPushes) / float64(m.Events); got > c.maxHeapPerEvent {
				t.Errorf("%.3f of all events went through the heap, want <= %.2f", got, c.maxHeapPerEvent)
			}
		})
	}
}
