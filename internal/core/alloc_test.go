package core

import (
	goruntime "runtime"
	"slices"
	"testing"
	"unsafe"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/phylo"
	"rocket/internal/gpu"
	"rocket/internal/obs"
)

// countRun runs cfg and returns the heap objects and bytes the whole Run
// allocated, with its metrics.
func countRun(t *testing.T, cfg Config) (mallocs, bytes float64, m *Metrics) {
	t.Helper()
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	m, err := Run(cfg)
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), m
}

// The allocation gates of the per-pair path: a cost model at n and at 2n
// items, every heap object counted around each Run. Set-up (cluster,
// caches, pools, slots, event queue) and the per-item state (candidate
// lists) grow with n or not at all, pairs grow with n², so the difference
// quotient between the two runs is what one more pair costs.
//
// reuse is the hit-dominated regime (forensics, four nodes): at most one
// object and 48 bytes, where the closure chains the job state machine
// replaced cost 15 and 611. thrash is the regime where the hierarchy
// misses and the fabric carries the run (phylo, sixteen nodes, 4 device
// and 8 host slots, 3 hops: half the lookups miss, 0.4 distributed-cache
// lookups and two fabric messages per pair): at most two objects and 96
// bytes, where boxed messages, per-transfer closures and per-lookup
// signals cost 19 and 850.
func TestAllocationsPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		name             string
		n                int
		cfg              func(n int) Config
		maxObjs, maxByte float64
	}{
		{"reuse", 200, func(n int) Config {
			return Config{App: forensics.New(forensics.Params{N: n, Seed: 1}), Cluster: newCluster(t, 4), Seed: 1, DistCache: true}
		}, 1.0, 48},
		{"thrash", 160, func(n int) Config {
			return Config{App: phylo.New(phylo.Params{N: n, Seed: 1}), Cluster: newCluster(t, 16), Seed: 1,
				DistCache: true, DeviceSlots: 4, HostSlots: 8, Hops: 3}
		}, 2.0, 96},
	} {
		t.Run(c.name, func(t *testing.T) {
			m1, b1, r1 := countRun(t, c.cfg(c.n))
			m2, b2, r2 := countRun(t, c.cfg(2*c.n))
			p1, p2 := float64(r1.Pairs), float64(r2.Pairs)
			perPair, bytesPerPair := (m2-m1)/(p2-p1), (b2-b1)/(p2-p1)
			t.Logf("n=%d: %.0f objects, %.0f bytes, %.0f pairs; n=%d: %.0f, %.0f, %.0f; per added pair %.3f objects, %.1f bytes",
				c.n, m1, b1, p1, 2*c.n, m2, b2, p2, perPair, bytesPerPair)
			if perPair > c.maxObjs {
				t.Errorf("%.3f heap objects per added pair, want <= %.1f", perPair, c.maxObjs)
			}
			if bytesPerPair > c.maxByte {
				t.Errorf("%.1f heap bytes per added pair, want <= %.0f", bytesPerPair, c.maxByte)
			}
		})
	}
}

// The fixed cost of a run: serve_* build a runtime for a handful of pairs
// thousands of times, so what makes messaging free per message may not be
// paid per run instead — slots, rings and bound continuations appear with
// the first message that needs them, nothing is sized per node up front.
// This four-node, four-item Run (idle nodes stealing throughout) allocated
// 1 745 objects with boxed messages and closures and allocates 298
// without; the bound leaves room for the Go runtime's own bookkeeping, not
// for a table per node.
func TestRunFixedCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	objs, bytes, m := countRun(t, Config{App: forensics.New(forensics.Params{N: 4, Seed: 1}), Cluster: newCluster(t, 4), Seed: 1, DistCache: true})
	t.Logf("%.0f objects, %.0f bytes, %d pairs", objs, bytes, m.Pairs)
	if objs > 350 {
		t.Errorf("a 4-node, 4-item run allocates %.0f objects, want <= 350", objs)
	}
}

// A flight recorder retains what its ring holds and nothing else: a run
// with a 64-span recorder attached allocates the ring's one backing array
// over the same run without it, whatever the data-set size — every task
// interval goes into a slot that already exists — and reports the same
// outcome. The slack is for what the Go runtime allocates on its own.
func TestSpansAllocateOnlyTheRing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ringCap, slackObjs, slackBytes = 64, 8, 2048
	ringBytes := float64(ringCap * unsafe.Sizeof(obs.Span{}))
	for _, n := range []int{60, 120} {
		cfg := func(rec *obs.Recorder) Config {
			return Config{App: forensics.New(forensics.Params{N: n, Seed: 1}), Cluster: newCluster(t, 4), Seed: 1, DistCache: true, Spans: rec}
		}
		objs, bytes, plain := countRun(t, cfg(nil))
		rec := obs.New(1, ringCap)
		tObjs, tBytes, traced := countRun(t, cfg(rec))
		snap := rec.Snapshot()
		t.Logf("n=%d: %.0f objects, %.0f bytes; with spans %.0f, %.0f (%d recorded, %d retained)",
			n, objs, bytes, tObjs, tBytes, snap.Recorded, len(snap.Spans))
		if snap.Recorded < traced.Pairs || len(snap.Spans) != ringCap {
			t.Errorf("n=%d: recorder saw %d spans and retains %d, want >= %d and %d", n, snap.Recorded, len(snap.Spans), traced.Pairs, ringCap)
		}
		if tObjs > objs+1+slackObjs || tBytes > bytes+ringBytes+slackBytes {
			t.Errorf("n=%d: spans cost %.0f objects and %.0f bytes, want <= 1 object and %.0f bytes (the ring)",
				n, tObjs-objs, tBytes-bytes, ringBytes)
		}
		if traced.Summary() != plain.Summary() {
			t.Errorf("n=%d: summary with spans %+v, without %+v", n, traced.Summary(), plain.Summary())
		}
	}
}

// fig15 was the one row of the benchmark trajectory whose allocs_per_op
// did not repeat (25 803–25 815 objects at scale 50, run over run, a dozen
// apart on its widest point alone): cache.Cache.index and
// dht.Engine.candidates were hash maps, and a map grows overflow buckets
// by its random seed. Both are item-indexed tables now, so a run shaped
// like that point — the Cartesius data set at scale 50 on 48 nodes of two
// GPUs: 96 device and 48 host caches, a candidate table per node —
// allocates the same number of objects every time, to the object.
//
// About one run in a hundred the Go runtime allocates something of its own
// meanwhile (a goroutine, a timer). That only ever adds, so of five runs
// the three cheapest have to agree.
func TestAllocationsRepeatExactly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	run := func() float64 {
		objs, _, _ := countRun(t, Config{App: phylo.New(phylo.Params{N: phylo.CartesiusN / 50, Seed: 1}),
			Cluster: newCluster(t, 48, gpu.K40m, gpu.K40m), Seed: 1, DistCache: true, DeviceSlots: 4, HostSlots: 11})
		return objs
	}
	run() // whatever the process initializes once
	objects := []float64{run(), run(), run(), run(), run()}
	slices.Sort(objects)
	if objects[0] != objects[2] {
		t.Fatalf("five runs of one configuration allocated %.0f objects", objects)
	}
}
