package steal

import (
	"testing"
	"testing/quick"

	"rocket/internal/pairs"
	"rocket/internal/stats"
)

// queuedTasks returns the total number of tasks across the group.
func (g *Group) queuedTasks() int {
	total := 0
	for _, d := range g.deques {
		total += d.Len()
	}
	return total
}

func region(n int) pairs.Region { return pairs.Root(n) }

func TestDequeLIFOBottomFIFOTop(t *testing.T) {
	d := &Deque{}
	d.PushBottom(region(2))
	d.PushBottom(region(3))
	d.PushBottom(region(4))
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if r, ok := d.PopBottom(); !ok || r != region(4) {
		t.Fatalf("PopBottom = %v, %v; want most recent", r, ok)
	}
	if r, ok := d.stealTop(); !ok || r != region(2) {
		t.Fatalf("stealTop = %v, %v; want oldest", r, ok)
	}
	if r, ok := d.PopBottom(); !ok || r != region(3) {
		t.Fatalf("PopBottom = %v, %v", r, ok)
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
	if _, ok := d.stealTop(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

func TestPeekTopCount(t *testing.T) {
	d := &Deque{}
	if d.peekTopCount() != 0 {
		t.Fatal("empty deque peek != 0")
	}
	d.PushBottom(region(10)) // 45 pairs
	d.PushBottom(region(2))  // 1 pair
	if d.peekTopCount() != 45 {
		t.Fatalf("peekTopCount = %d, want 45 (top is oldest)", d.peekTopCount())
	}
}

func TestGroupStealLocalPicksLargest(t *testing.T) {
	g := NewGroup(3)
	g.Deque(0).PushBottom(region(4))  // 6 pairs
	g.Deque(1).PushBottom(region(20)) // 190 pairs
	g.Deque(2).PushBottom(region(8))  // 28 pairs
	r, ok := g.StealLocal(2)          // thief is worker 2
	if !ok || r != region(20) {
		t.Fatalf("StealLocal = %v, %v; want the largest task", r, ok)
	}
	if g.Deque(1).Len() != 0 {
		t.Fatal("stolen task still queued")
	}
}

func TestGroupStealLocalSkipsThief(t *testing.T) {
	g := NewGroup(2)
	g.Deque(0).PushBottom(region(50))
	if _, ok := g.StealLocal(0); ok {
		t.Fatal("worker stole from itself")
	}
	if r, ok := g.StealLocal(1); !ok || r != region(50) {
		t.Fatalf("other worker failed to steal: %v %v", r, ok)
	}
}

func TestGroupStealLocalAllConsidersEvery(t *testing.T) {
	g := NewGroup(2)
	g.Deque(0).PushBottom(region(5))
	if r, ok := g.StealLocal(-1); !ok || r != region(5) {
		t.Fatalf("StealLocal(-1) = %v, %v", r, ok)
	}
}

func TestGroupEmptySteal(t *testing.T) {
	g := NewGroup(4)
	if _, ok := g.StealLocal(-1); ok {
		t.Fatal("steal from empty group succeeded")
	}
	if g.queuedTasks() != 0 || g.Size() != 4 {
		t.Fatal("accounting wrong")
	}
}

// Property: any interleaving of pushes, pops, and steals conserves tasks
// (no loss, no duplication) and total pair count.
func TestQuickConservation(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := stats.NewRNG(seed)
		g := NewGroup(3)
		ops := int(opsRaw) + 20
		pushed := map[pairs.Region]int{}
		removed := map[pairs.Region]int{}
		next := 2
		for k := 0; k < ops; k++ {
			w := rng.Intn(3)
			switch rng.Intn(3) {
			case 0:
				r := pairs.Region{RowLo: 0, RowHi: next, ColLo: 0, ColHi: next}
				next++
				g.Deque(w).PushBottom(r)
				pushed[r]++
			case 1:
				if r, ok := g.Deque(w).PopBottom(); ok {
					removed[r]++
				}
			case 2:
				if r, ok := g.StealLocal(w); ok {
					removed[r]++
				}
			}
		}
		// Drain the rest.
		for i := 0; i < g.Size(); i++ {
			for {
				r, ok := g.Deque(i).PopBottom()
				if !ok {
					break
				}
				removed[r]++
			}
		}
		if len(pushed) != len(removed) {
			return false
		}
		for r, c := range pushed {
			if removed[r] != c {
				return false
			}
		}
		return g.queuedTasks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the backing-array leak: stealTop used to re-slice
// (tasks = tasks[1:]), so sustained push/steal cycles walked the slice
// ever deeper into a backing array that append then had to regrow without
// bound. With the head index + compaction, capacity must stay proportional
// to the high-water queue depth, not the cycle count.
func TestStealTopBoundedCapacity(t *testing.T) {
	d := &Deque{}
	const depth = 8
	for k := 0; k < 100000; k++ {
		for i := 0; i < depth; i++ {
			d.PushBottom(region(i + 2))
		}
		for i := 0; i < depth; i++ {
			if _, ok := d.stealTop(); !ok {
				t.Fatal("steal failed")
			}
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after balanced cycles", d.Len())
	}
	// The bound below is generous (compaction keeps the live window plus a
	// dead prefix of at most compactAt + live); the pre-fix behavior grows
	// into the thousands.
	if c := cap(d.tasks); c > 4*(depth+compactAt) {
		t.Fatalf("backing array grew to cap %d under push/steal cycles", c)
	}
}

// Mixed steal/pop cycles with a persistent backlog must also keep the
// backing array bounded, and preserve FIFO/LIFO order across compactions.
func TestStealTopCompactionPreservesOrder(t *testing.T) {
	d := &Deque{}
	next := 2
	for i := 0; i < 40; i++ { // persistent backlog straddling compactAt
		d.PushBottom(region(next))
		next++
	}
	expectTop := 2
	for k := 0; k < 50000; k++ {
		d.PushBottom(region(next))
		next++
		if r, ok := d.stealTop(); !ok || r != region(expectTop) {
			t.Fatalf("cycle %d: stealTop = %v, want %v", k, r, region(expectTop))
		}
		expectTop++
	}
	if d.Len() != 40 {
		t.Fatalf("backlog length = %d, want 40", d.Len())
	}
	if c := cap(d.tasks); c > 4*(40+compactAt) {
		t.Fatalf("backing array grew to cap %d", c)
	}
	// The remaining backlog must drain bottom-first in push order.
	if r, ok := d.PopBottom(); !ok || r != region(next-1) {
		t.Fatalf("PopBottom = %v, want %v", r, region(next-1))
	}
}

func TestGroupDrain(t *testing.T) {
	g := NewGroup(2)
	g.Deque(0).PushBottom(region(3))
	g.Deque(0).PushBottom(region(4))
	g.Deque(1).PushBottom(region(5))
	got := g.Drain()
	want := []pairs.Region{region(3), region(4), region(5)}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if g.queuedTasks() != 0 {
		t.Fatal("group not empty after Drain")
	}
}

func TestStealBestOverlapPrefersResidentItems(t *testing.T) {
	g := NewGroup(2)
	// Deque 0's top covers items 0-9; deque 1's top covers items 100-109.
	g.Deque(0).PushBottom(pairs.Region{RowLo: 0, RowHi: 10, ColLo: 0, ColHi: 10})
	g.Deque(1).PushBottom(pairs.Region{RowLo: 100, RowHi: 110, ColLo: 100, ColHi: 110})
	r, ok := g.StealBestOverlap([]int{103, 105, 200})
	if !ok || r.RowLo != 100 {
		t.Fatalf("StealBestOverlap = %v, %v; want the 100-range task", r, ok)
	}
	// No overlap anywhere: falls back to the largest task.
	g2 := NewGroup(2)
	g2.Deque(0).PushBottom(pairs.Root(4))
	g2.Deque(1).PushBottom(pairs.Root(20))
	r2, ok := g2.StealBestOverlap([]int{999})
	if !ok || r2 != pairs.Root(20) {
		t.Fatalf("no-overlap fallback = %v, %v; want largest", r2, ok)
	}
	// Empty group.
	if _, ok := NewGroup(1).StealBestOverlap([]int{1}); ok {
		t.Fatal("stole from empty group")
	}
}

func TestStealBestOverlapEmptyGroup(t *testing.T) {
	g := NewGroup(0)
	if _, ok := g.StealBestOverlap([]int{1, 2, 3}); ok {
		t.Fatal("steal from a group with no workers succeeded")
	}
}

func TestStealBestOverlapAllEmptyDeques(t *testing.T) {
	g := NewGroup(3)
	if _, ok := g.StealBestOverlap([]int{1, 2, 3}); ok {
		t.Fatal("steal from all-empty deques succeeded")
	}
	if _, ok := g.StealBestOverlap(nil); ok {
		t.Fatal("steal with no resident set from empty deques succeeded")
	}
}

func TestStealBestOverlapTieBreaksTowardLargerTask(t *testing.T) {
	g := NewGroup(2)
	// Both top tasks cover items the thief has resident (overlap ties);
	// the larger region must win.
	g.Deque(0).PushBottom(region(4))  // items 0..3, 6 pairs
	g.Deque(1).PushBottom(region(12)) // items 0..11, 66 pairs
	resident := []int{0, 1, 2, 3}     // fully inside both regions: equal overlap
	r, ok := g.StealBestOverlap(resident)
	if !ok || r != region(12) {
		t.Fatalf("StealBestOverlap = %v, %v; want the larger of the tied tasks", r, ok)
	}
	if g.Deque(1).Len() != 0 {
		t.Fatal("stolen task still queued")
	}
}

func TestStealBestOverlapZeroOverlapDegradesToLargest(t *testing.T) {
	g := NewGroup(2)
	g.Deque(0).PushBottom(region(4))
	g.Deque(1).PushBottom(region(8))
	// Resident items outside every queued region: overlap is 0 for all,
	// so the steal must still succeed and take the largest task.
	r, ok := g.StealBestOverlap([]int{100, 101})
	if !ok || r != region(8) {
		t.Fatalf("StealBestOverlap = %v, %v; want largest task on zero overlap", r, ok)
	}
}

func TestStealBestOverlapPrefersOverlapOverSize(t *testing.T) {
	g := NewGroup(2)
	sub := pairs.Root(64).Split() // quadrants with distinct item ranges
	g.Deque(0).PushBottom(sub[0]) // low items
	g.Deque(1).PushBottom(region(8))
	// Resident set matches deque 0's quadrant items; even if another
	// task were larger, the overlapping one must win.
	r, ok := g.StealBestOverlap([]int{0, 1, 2, 3, 4, 5})
	if !ok || r != sub[0] {
		t.Fatalf("StealBestOverlap = %v, %v; want the overlapping task %v", r, ok, sub[0])
	}
}
