package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

// run executes fn as a single simulation process and drives the env.
func run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e := sim.NewEnv()
	e.Spawn("test", fn)
	e.Run()
	e.Close()
}

func TestMissThenHit(t *testing.T) {
	c := New("dev", 4, 100)
	run(t, func(p *sim.Proc) {
		h, hit := c.Acquire(p, 7)
		if hit || !h.Write {
			t.Fatal("first acquire must be a write-lease miss")
		}
		h.SetData("payload")
		h.Publish(p.Env())
		h2, hit := c.Acquire(p, 7)
		if !hit || h2.Write {
			t.Fatal("second acquire must hit")
		}
		if h2.Data() != "payload" {
			t.Fatalf("data = %v", h2.Data())
		}
		h2.Release(p.Env())
		h.Release(p.Env())
		st := c.Stats()
		if st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLRUEviction(t *testing.T) {
	c := New("dev", 2, 100)
	run(t, func(p *sim.Proc) {
		e := p.Env()
		for _, item := range []int{0, 1} {
			h, _ := c.Acquire(p, item)
			h.Publish(e)
			h.Release(e)
		}
		// Touch 0 so 1 becomes least recently used.
		h, hit := c.Acquire(p, 0)
		if !hit {
			t.Fatal("item 0 should be cached")
		}
		h.Release(e)
		// Insert 2: must evict 1, not 0.
		h2, _ := c.Acquire(p, 2)
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
	})
}

func TestPinnedSlotNotEvicted(t *testing.T) {
	c := New("dev", 2, 100)
	run(t, func(p *sim.Proc) {
		e := p.Env()
		h0, _ := c.Acquire(p, 0)
		h0.Publish(e) // keep the read lease: slot pinned
		h1, _ := c.Acquire(p, 1)
		h1.Publish(e)
		h1.Release(e)
		// Item 2 must evict item 1 (item 0 is pinned).
		h2, _ := c.Acquire(p, 2)
		h2.Publish(e)
		h2.Release(e)
		if !c.Contains(0) {
			t.Fatal("pinned item was evicted")
		}
		h0.Release(e)
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWaitersBlockDuringWrite(t *testing.T) {
	c := New("dev", 4, 100)
	e := sim.NewEnv()
	var order []string
	e.Spawn("writer", func(p *sim.Proc) {
		h, hit := c.Acquire(p, 5)
		if hit {
			t.Error("writer expected miss")
		}
		p.Wait(sim.Millis(10)) // simulate the load pipeline
		h.SetData(42)
		h.Publish(p.Env())
		order = append(order, "published")
		h.Release(p.Env())
	})
	for i := 0; i < 3; i++ {
		e.Spawn("reader", func(p *sim.Proc) {
			p.Wait(sim.Millis(1)) // start after the writer
			h, hit := c.Acquire(p, 5)
			if !hit {
				t.Error("reader expected hit after waiting")
			}
			if p.Now() != sim.Millis(10) {
				t.Errorf("reader resumed at %v, want 10ms", p.Now())
			}
			if h.Data() != 42 {
				t.Errorf("reader saw %v", h.Data())
			}
			order = append(order, "read")
			h.Release(p.Env())
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
	c := New("dev", 2, 100)
	e := sim.NewEnv()
	var secondWasWriter bool
	e.Spawn("failing", func(p *sim.Proc) {
		h, _ := c.Acquire(p, 3)
		p.Wait(sim.Millis(5))
		h.Abort(p.Env())
	})
	e.Spawn("retry", func(p *sim.Proc) {
		p.Wait(sim.Millis(1))
		h, hit := c.Acquire(p, 3)
		secondWasWriter = !hit
		if !hit {
			h.Publish(p.Env())
		}
		h.Release(p.Env())
	})
	e.Run()
	e.Close()
	if !secondWasWriter {
		t.Fatal("waiter should have become the writer after abort")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStallWhenAllPinned(t *testing.T) {
	c := New("dev", 1, 100)
	e := sim.NewEnv()
	e.Spawn("holder", func(p *sim.Proc) {
		h, _ := c.Acquire(p, 0)
		h.Publish(p.Env())
		p.Wait(sim.Millis(20))
		h.Release(p.Env())
	})
	e.Spawn("blocked", func(p *sim.Proc) {
		p.Wait(sim.Millis(1))
		h, hit := c.Acquire(p, 1) // no free slot until holder releases
		if hit {
			t.Error("expected miss")
		}
		if p.Now() != sim.Millis(20) {
			t.Errorf("acquired at %v, want 20ms", p.Now())
		}
		h.Publish(p.Env())
		h.Release(p.Env())
	})
	e.Run()
	e.Close()
	if c.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestContainsIgnoresWriting(t *testing.T) {
	c := New("dev", 2, 100)
	run(t, func(p *sim.Proc) {
		h, _ := c.Acquire(p, 9)
		if c.Contains(9) {
			t.Error("Contains true during WRITE")
		}
		h.Publish(p.Env())
		if !c.Contains(9) {
			t.Error("Contains false after publish")
		}
		h.Release(p.Env())
	})
}

func TestZeroCapacityPanicsOnAcquire(t *testing.T) {
	c := New("dev", 0, 100)
	if c.Cap() != 0 {
		t.Fatal("capacity should be 0")
	}
	run(t, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Acquire(p, 1)
	})
}

func TestMisuseHandlePanics(t *testing.T) {
	c := New("dev", 2, 100)
	run(t, func(p *sim.Proc) {
		e := p.Env()
		h, _ := c.Acquire(p, 0)
		h.Publish(e)
		h.Release(e)
		mustPanic(t, "double release", func() { h.Release(e) })
		h2, hit := c.Acquire(p, 0)
		if !hit {
			t.Fatal("expected hit")
		}
		mustPanic(t, "publish read lease", func() { h2.Publish(e) })
		mustPanic(t, "abort read lease", func() { h2.Abort(e) })
		mustPanic(t, "setdata on read lease", func() { h2.SetData(1) })
		h2.Release(e)
		mustPanic(t, "release unpublished write", func() {
			h3, _ := c.Acquire(p, 5)
			h3.Release(e)
		})
		mustPanic(t, "negative item", func() { c.Acquire(p, -1) })
	})
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
	c := New("host", 3, 555)
	if c.Name() != "host" || c.SlotSize() != 555 {
		t.Fatal("accessors wrong")
	}
	run(t, func(p *sim.Proc) {
		h, _ := c.Acquire(p, 1)
		if c.Resident() != 1 {
			t.Fatalf("resident = %d", c.Resident())
		}
		h.Publish(p.Env())
		h.Release(p.Env())
	})
}

func TestRandomEvictionPolicy(t *testing.T) {
	c := NewWithPolicy("rnd", 3, 100, PolicyRandom, stats.NewRNG(1))
	run(t, func(p *sim.Proc) {
		e := p.Env()
		// Fill the cache; empties must be consumed before live data.
		for item := 0; item < 3; item++ {
			h, hit := c.Acquire(p, item)
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
			h, _ := c.Acquire(p, item)
			h.Publish(e)
			h.Release(e)
			if err := c.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Stats().Evictions != 27 {
			t.Fatalf("evictions = %d, want 27", c.Stats().Evictions)
		}
	})
}

func TestRandomPolicyRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWithPolicy("bad", 2, 1, PolicyRandom, nil)
}

func TestRandomEvictionDiffersFromLRU(t *testing.T) {
	// Under a cyclic scan over capacity+1 items, LRU always misses; random
	// eviction eventually hits.
	lru := New("lru", 4, 1)
	rnd := NewWithPolicy("rnd", 4, 1, PolicyRandom, stats.NewRNG(7))
	run(t, func(p *sim.Proc) {
		e := p.Env()
		for round := 0; round < 40; round++ {
			for item := 0; item < 5; item++ {
				for _, c := range []*Cache{lru, rnd} {
					h, hit := c.Acquire(p, item)
					if !hit {
						h.Publish(e)
					}
					h.Release(e)
				}
			}
		}
	})
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
		c := New("q", capacity, 10)
		rng := stats.NewRNG(seed)
		e := sim.NewEnv()
		ok := true
		var acquisitions uint64
		for w := 0; w < 4; w++ {
			e.Spawn("w", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					item := rng.Intn(items)
					h, hit := c.Acquire(p, item)
					acquisitions++
					if !hit {
						p.Wait(sim.Time(rng.Intn(3)) * sim.Microsecond)
						if rng.Intn(10) == 0 {
							h.Abort(p.Env())
							if err := c.checkInvariants(); err != nil {
								ok = false
							}
							continue
						}
						h.Publish(p.Env())
					}
					p.Wait(sim.Time(rng.Intn(3)) * sim.Microsecond)
					h.Release(p.Env())
					if err := c.checkInvariants(); err != nil {
						ok = false
					}
					if c.Resident() > capacity {
						ok = false
					}
				}
			})
		}
		e.Run()
		e.Close()
		st := c.Stats()
		if st.Hits+st.Misses > acquisitions {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestItemsSortedAndLimited(t *testing.T) {
	c := New("items", 5, 1)
	run(t, func(p *sim.Proc) {
		e := p.Env()
		for _, item := range []int{9, 2, 7} {
			h, _ := c.Acquire(p, item)
			h.Publish(e)
			h.Release(e)
		}
		// An item mid-write must not be listed.
		w, _ := c.Acquire(p, 5)
		got := c.Items(0)
		if len(got) != 3 || got[0] != 2 || got[1] != 7 || got[2] != 9 {
			t.Fatalf("Items = %v, want [2 7 9]", got)
		}
		if lim := c.Items(2); len(lim) != 2 {
			t.Fatalf("limited Items = %v", lim)
		}
		w.Publish(e)
		w.Release(e)
	})
}

func TestWarm(t *testing.T) {
	c := New("warm", 2, 1)
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
	run(t, func(p *sim.Proc) {
		h, hit := c.Acquire(p, 4)
		if !hit || h.Data() != "x" {
			t.Fatalf("warmed item: hit=%v data=%v", hit, h.Data())
		}
		h.Release(p.Env())
	})
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireFuncMirrorsAcquire(t *testing.T) {
	// The same miss/hit/write-wait sequence through both APIs must produce
	// identical stats and grant times.
	run := func(callback bool) (Stats, []sim.Time) {
		e := sim.NewEnv()
		c := New("c", 1, 1)
		var times []sim.Time
		acquire := func(item int, hold sim.Time) {
			if callback {
				c.AcquireFunc(item, func(h Handle, hit bool) {
					times = append(times, e.Now())
					if !hit {
						e.After(hold, func() {
							h.Publish(e)
							h.Release(e)
						})
						return
					}
					h.Release(e)
				})
				return
			}
			e.Spawn("a", func(p *sim.Proc) {
				h, hit := c.Acquire(p, item)
				times = append(times, p.Now())
				if !hit {
					p.Wait(hold)
					h.Publish(p.Env())
				}
				h.Release(p.Env())
			})
		}
		acquire(7, sim.Millis(5)) // miss: write lease, published at 5ms
		acquire(7, 0)             // wait-hit: blocked until publish
		e.Run()
		e.Close()
		return c.Stats(), times
	}
	procStats, procTimes := run(false)
	cbStats, cbTimes := run(true)
	if procStats != cbStats {
		t.Fatalf("stats diverge: proc %+v vs callback %+v", procStats, cbStats)
	}
	if fmt.Sprint(procTimes) != fmt.Sprint(cbTimes) {
		t.Fatalf("grant times diverge: proc %v vs callback %v", procTimes, cbTimes)
	}
	if cbStats.WaitHits != 1 || cbStats.Misses != 1 {
		t.Fatalf("unexpected stats %+v", cbStats)
	}
}

func TestAcquireFuncWaitsForFreeSlot(t *testing.T) {
	e := sim.NewEnv()
	c := New("c", 1, 1)
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
	var h Handle
	var hit, done bool
	c.AcquireFunc(item, func(got Handle, gotHit bool) {
		if !gotHit {
			got.Publish(e)
		}
		h, hit, done = got, gotHit, true
	})
	if !done {
		t.Fatal("acquire did not complete inline on an empty cache")
	}
	return h, hit
}
