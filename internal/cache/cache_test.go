package cache

import (
	"testing"
	"testing/quick"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

// newLRU returns an LRU cache of capacity slots.
func newLRU(name string, capacity int) *Cache { return New(name, capacity, PolicyLRU, nil) }

// acquire obtains item on a path that cannot suspend (a hit, or a miss
// with an evictable slot) and returns what the continuation received.
func acquire(t *testing.T, c *Cache, item int) (h Handle, hit bool) {
	t.Helper()
	done := false
	c.AcquireFunc(item, func(got Handle, gotHit bool) { h, hit, done = got, gotHit, true })
	if !done {
		t.Fatalf("acquire of item %d did not complete inline", item)
	}
	return h, hit
}

func TestMissThenHit(t *testing.T) {
	c := newLRU("dev", 4)
	e := sim.NewEnv()
	h, hit := acquire(t, c, 7)
	if hit || !h.Write {
		t.Fatal("first acquire must be a write-lease miss")
	}
	h.SetData("payload")
	h.Publish(e)
	h2, hit := acquire(t, c, 7)
	if !hit || h2.Write {
		t.Fatal("second acquire must hit")
	}
	if h2.Data() != "payload" {
		t.Fatalf("data = %v", h2.Data())
	}
	h2.Release(e)
	h.Release(e)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU("dev", 2)
	e := sim.NewEnv()
	for _, item := range []int{0, 1} {
		h, _ := acquire(t, c, item)
		h.Publish(e)
		h.Release(e)
	}
	// Touch 0 so 1 becomes least recently used.
	h, hit := acquire(t, c, 0)
	if !hit {
		t.Fatal("item 0 should be cached")
	}
	h.Release(e)
	// Insert 2: must evict 1, not 0.
	h2, _ := acquire(t, c, 2)
	h2.Publish(e)
	h2.Release(e)
	if !c.Contains(0) || c.Contains(1) || !c.Contains(2) {
		t.Fatalf("LRU violated: 0=%v 1=%v 2=%v",
			c.Contains(0), c.Contains(1), c.Contains(2))
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedSlotNotEvicted(t *testing.T) {
	c := newLRU("dev", 2)
	e := sim.NewEnv()
	h0, _ := acquire(t, c, 0)
	h0.Publish(e) // keep the read lease: slot pinned
	h1, _ := acquire(t, c, 1)
	h1.Publish(e)
	h1.Release(e)
	// Item 2 must evict item 1 (item 0 is pinned).
	h2, _ := acquire(t, c, 2)
	h2.Publish(e)
	h2.Release(e)
	if !c.Contains(0) {
		t.Fatal("pinned item was evicted")
	}
	h0.Release(e)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitersBlockDuringWrite(t *testing.T) {
	c := newLRU("dev", 4)
	e := sim.NewEnv()
	var order []string
	h, hit := acquire(t, c, 5)
	if hit {
		t.Error("writer expected miss")
	}
	e.After(sim.Millis(10), func() { // simulate the load pipeline
		h.SetData(42)
		h.Publish(e)
		order = append(order, "published")
		h.Release(e)
	})
	for i := 0; i < 3; i++ {
		e.After(sim.Millis(1), func() { // start after the writer
			c.AcquireFunc(5, func(h Handle, hit bool) {
				if !hit {
					t.Error("reader expected hit after waiting")
				}
				if e.Now() != sim.Millis(10) {
					t.Errorf("reader resumed at %v, want 10ms", e.Now())
				}
				if h.Data() != 42 {
					t.Errorf("reader saw %v", h.Data())
				}
				order = append(order, "read")
				h.Release(e)
			})
		})
	}
	e.Run()
	e.Close()
	if len(order) != 4 || order[0] != "published" {
		t.Fatalf("order = %v", order)
	}
	if c.Stats().WaitHits != 3 {
		t.Fatalf("wait-hits = %d, want 3", c.Stats().WaitHits)
	}
}

func TestAbortLetsWaiterTakeOver(t *testing.T) {
	c := newLRU("dev", 2)
	e := sim.NewEnv()
	var retried, secondWasWriter bool
	failing, _ := acquire(t, c, 3)
	e.After(sim.Millis(5), func() { failing.Abort(e) })
	e.After(sim.Millis(1), func() {
		c.AcquireFunc(3, func(h Handle, hit bool) {
			retried, secondWasWriter = true, !hit
			if e.Now() != sim.Millis(5) {
				t.Errorf("waiter resumed at %v, want 5ms (the abort)", e.Now())
			}
			if !hit {
				h.Publish(e)
			}
			h.Release(e)
		})
	})
	e.Run()
	e.Close()
	if !retried || !secondWasWriter {
		t.Fatalf("waiter should have become the writer after abort (retried=%v)", retried)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStallWhenAllPinned(t *testing.T) {
	c := newLRU("dev", 1)
	e := sim.NewEnv()
	holder, _ := acquire(t, c, 0)
	holder.Publish(e)
	e.After(sim.Millis(20), func() { holder.Release(e) })
	granted := false
	e.After(sim.Millis(1), func() {
		c.AcquireFunc(1, func(h Handle, hit bool) { // no free slot until holder releases
			granted = true
			if hit {
				t.Error("expected miss")
			}
			if e.Now() != sim.Millis(20) {
				t.Errorf("acquired at %v, want 20ms", e.Now())
			}
			h.Publish(e)
			h.Release(e)
		})
	})
	e.Run()
	e.Close()
	if !granted {
		t.Fatal("stalled acquisition never granted")
	}
	if c.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestContainsIgnoresWriting(t *testing.T) {
	c := newLRU("dev", 2)
	e := sim.NewEnv()
	h, _ := acquire(t, c, 9)
	if c.Contains(9) {
		t.Error("Contains true during WRITE")
	}
	h.Publish(e)
	if !c.Contains(9) {
		t.Error("Contains false after publish")
	}
	h.Release(e)
}

func TestZeroCapacityPanicsOnAcquire(t *testing.T) {
	c := newLRU("dev", 0)
	if c.Cap() != 0 {
		t.Fatal("capacity should be 0")
	}
	mustPanic(t, "acquire on zero capacity", func() { acquire(t, c, 1) })
}

func TestMisuseHandlePanics(t *testing.T) {
	c := newLRU("dev", 2)
	e := sim.NewEnv()
	h, _ := acquire(t, c, 0)
	h.Publish(e)
	h.Release(e)
	mustPanic(t, "double release", func() { h.Release(e) })
	h2, hit := acquire(t, c, 0)
	if !hit {
		t.Fatal("expected hit")
	}
	mustPanic(t, "publish read lease", func() { h2.Publish(e) })
	mustPanic(t, "abort read lease", func() { h2.Abort(e) })
	mustPanic(t, "setdata on read lease", func() { h2.SetData(1) })
	h2.Release(e)
	mustPanic(t, "release unpublished write", func() {
		h3, _ := acquire(t, c, 5)
		h3.Release(e)
	})
	mustPanic(t, "negative item", func() { acquire(t, c, -1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestResidentAndAccessors(t *testing.T) {
	c := newLRU("host", 3)
	if c.Name() != "host" {
		t.Fatal("accessors wrong")
	}
	e := sim.NewEnv()
	h, _ := acquire(t, c, 1)
	if c.Resident() != 1 {
		t.Fatalf("resident = %d", c.Resident())
	}
	h.Publish(e)
	h.Release(e)
}

func TestRandomEvictionPolicy(t *testing.T) {
	c := New("rnd", 3, PolicyRandom, stats.NewRNG(1))
	e := sim.NewEnv()
	// Fill the cache; empties must be consumed before live data.
	for item := 0; item < 3; item++ {
		h, hit := acquire(t, c, item)
		if hit {
			t.Fatalf("unexpected hit for %d", item)
		}
		h.Publish(e)
		h.Release(e)
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("evicted live data while empty slots existed")
	}
	// Further inserts evict something, and invariants hold.
	for item := 3; item < 30; item++ {
		h, _ := acquire(t, c, item)
		h.Publish(e)
		h.Release(e)
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions != 27 {
		t.Fatalf("evictions = %d, want 27", c.Stats().Evictions)
	}
}

func TestRandomPolicyRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 2, PolicyRandom, nil)
}

func TestRandomEvictionDiffersFromLRU(t *testing.T) {
	// Under a cyclic scan over capacity+1 items, LRU always misses; random
	// eviction eventually hits.
	lru := newLRU("lru", 4)
	rnd := New("rnd", 4, PolicyRandom, stats.NewRNG(7))
	e := sim.NewEnv()
	for round := 0; round < 40; round++ {
		for item := 0; item < 5; item++ {
			for _, c := range []*Cache{lru, rnd} {
				h, hit := acquire(t, c, item)
				if !hit {
					h.Publish(e)
				}
				h.Release(e)
			}
		}
	}
	if lru.Stats().Hits != 0 {
		t.Fatalf("LRU hits on cyclic scan = %d, want 0", lru.Stats().Hits)
	}
	if rnd.Stats().Hits == 0 {
		t.Fatal("random eviction never hit on cyclic scan")
	}
}

// Property: under a random access workload the cache never exceeds
// capacity, invariants hold after every operation, and hits+misses+waits
// match the number of acquisitions.
func TestQuickRandomWorkloadInvariants(t *testing.T) {
	f := func(seed uint64, capRaw, itemsRaw uint8) bool {
		capacity := int(capRaw%8) + 2
		items := int(itemsRaw%20) + 1
		c := newLRU("q", capacity)
		rng := stats.NewRNG(seed)
		e := sim.NewEnv()
		ok := true
		check := func() {
			if err := c.checkInvariants(); err != nil || c.Resident() > capacity {
				ok = false
			}
		}
		pause := func(fn func()) { e.After(sim.Time(rng.Intn(3))*sim.Microsecond, fn) }
		var acquisitions uint64
		finished := 0
		// Each worker is a 50-round chain: acquire, fill on a miss (one
		// fill in ten aborts), hold, release, next round.
		var round func(i int)
		round = func(i int) {
			if i == 50 {
				finished++
				return
			}
			c.AcquireFunc(rng.Intn(items), func(h Handle, hit bool) {
				acquisitions++
				hold := func() {
					pause(func() {
						h.Release(e)
						check()
						round(i + 1)
					})
				}
				if hit {
					hold()
					return
				}
				pause(func() {
					if rng.Intn(10) == 0 {
						h.Abort(e)
						check()
						round(i + 1)
						return
					}
					h.Publish(e)
					hold()
				})
			})
		}
		for w := 0; w < 4; w++ {
			e.Defer(func() { round(0) })
		}
		e.Run()
		e.Close()
		st := c.Stats()
		if st.Hits+st.Misses != acquisitions || finished != 4 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestItemsSortedAndLimited(t *testing.T) {
	c := newLRU("items", 5)
	e := sim.NewEnv()
	for _, item := range []int{9, 2, 7} {
		h, _ := acquire(t, c, item)
		h.Publish(e)
		h.Release(e)
	}
	// An item mid-write must not be listed.
	w, _ := acquire(t, c, 5)
	got := c.Items(0)
	if len(got) != 3 || got[0] != 2 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Items = %v, want [2 7 9]", got)
	}
	if lim := c.Items(2); len(lim) != 2 {
		t.Fatalf("limited Items = %v", lim)
	}
	w.Publish(e)
	w.Release(e)
}

func TestWarm(t *testing.T) {
	c := newLRU("warm", 2)
	if !c.Warm(4, "x") {
		t.Fatal("warm into empty cache failed")
	}
	if c.Warm(4, "x") {
		t.Fatal("duplicate warm accepted")
	}
	if !c.Warm(5, "y") {
		t.Fatal("second warm failed")
	}
	if c.Warm(6, "z") {
		t.Fatal("warm evicted live data")
	}
	if !c.Contains(4) || !c.Contains(5) {
		t.Fatal("warmed items not resident")
	}
	e := sim.NewEnv()
	h, hit := acquire(t, c, 4)
	if !hit || h.Data() != "x" {
		t.Fatalf("warmed item: hit=%v data=%v", hit, h.Data())
	}
	h.Release(e)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireFuncWaitsForFreeSlot(t *testing.T) {
	e := sim.NewEnv()
	c := newLRU("c", 1)
	h, hit := writeAndPublish(t, e, c, 1)
	if hit {
		t.Fatal("first acquire hit")
	}
	var grantedAt sim.Time
	granted := false
	c.AcquireFunc(2, func(h2 Handle, hit bool) {
		granted, grantedAt = true, e.Now()
		if hit {
			t.Error("item 2 cannot hit")
		}
		h2.Publish(e)
		h2.Release(e)
	})
	if granted {
		t.Fatal("AcquireFunc granted while every slot was pinned")
	}
	e.After(sim.Millis(3), func() { h.Release(e) })
	e.Run()
	e.Close()
	if !granted || grantedAt != sim.Millis(3) {
		t.Fatalf("granted=%v at %v, want grant at 3ms", granted, grantedAt)
	}
	if c.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Stats().Stalls)
	}
}

// writeAndPublish inserts item via a write lease and publishes it, keeping
// the read lease (pinning the slot).
func writeAndPublish(t *testing.T, e *sim.Env, c *Cache, item int) (Handle, bool) {
	t.Helper()
	h, hit := acquire(t, c, item)
	if !hit {
		h.Publish(e)
	}
	return h, hit
}
