// Package steal implements the work-stealing structures of Rocket's
// scheduler (paper §4.2): per-worker task deques holding regions of the
// pair matrix, with LIFO local access (best locality: deepest task first)
// and FIFO stealing (most work per steal: the largest task first), plus the
// node-level policy of stealing from a same-node worker before going to a
// remote node.
package steal

import (
	"rocket/internal/pairs"
)

// Deque is a double-ended task queue owned by one worker. The owning
// worker pushes and pops at the bottom; thieves steal from the top. The
// simulation is single-threaded, so no synchronization is needed — the
// contract matches Cilk/Constellation semantics, not lock-free mechanics.
//
// Storage is a slice with an explicit head index. stealTop advances head
// instead of re-slicing (tasks = tasks[1:] would walk the slice ever
// deeper into its backing array, forcing append to reallocate and grow it
// without bound under sustained push/steal cycles); the occupied window is
// compacted back to the front once the dead prefix dominates, so capacity
// stays proportional to the high-water queue depth.
type Deque struct {
	tasks []pairs.Region
	head  int
}

// compactAt is the dead-prefix length beyond which stealTop shifts the
// live window back to the front of the backing array. Compaction copies at
// most as many elements as were stolen since the last one, so the
// amortized cost per steal is O(1).
const compactAt = 32

// Len returns the number of queued tasks.
func (d *Deque) Len() int { return len(d.tasks) - d.head }

// PushBottom adds a task at the worker end.
func (d *Deque) PushBottom(r pairs.Region) {
	d.tasks = append(d.tasks, r)
}

// PopBottom removes and returns the most recently pushed task (LIFO),
// which is the deepest, most local task.
func (d *Deque) PopBottom() (pairs.Region, bool) {
	if d.Len() == 0 {
		return pairs.Region{}, false
	}
	r := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	if d.head == len(d.tasks) {
		d.tasks = d.tasks[:0]
		d.head = 0
	}
	return r, true
}

// stealTop removes and returns the oldest task (FIFO), which sits highest
// in the divide-and-conquer tree and therefore represents the most work.
func (d *Deque) stealTop() (pairs.Region, bool) {
	if d.Len() == 0 {
		return pairs.Region{}, false
	}
	r := d.tasks[d.head]
	d.head++
	switch {
	case d.head == len(d.tasks):
		d.tasks = d.tasks[:0]
		d.head = 0
	case d.head >= compactAt && d.head*2 >= len(d.tasks):
		n := copy(d.tasks, d.tasks[d.head:])
		d.tasks = d.tasks[:n]
		d.head = 0
	}
	return r, true
}

// top returns the oldest queued task; it must not be called on an empty
// deque.
func (d *Deque) top() pairs.Region { return d.tasks[d.head] }

// peekTopCount returns the pair count of the top task, or 0 if empty.
func (d *Deque) peekTopCount() int64 {
	if d.Len() == 0 {
		return 0
	}
	return d.top().Count()
}

// Group is the set of deques of one node's workers (one worker per GPU).
type Group struct {
	deques []*Deque
}

// NewGroup returns a group with n empty deques.
func NewGroup(n int) *Group {
	g := &Group{deques: make([]*Deque, n)}
	for i := range g.deques {
		g.deques[i] = &Deque{}
	}
	return g
}

// Deque returns worker i's deque.
func (g *Group) Deque(i int) *Deque { return g.deques[i] }

// Size returns the number of workers in the group.
func (g *Group) Size() int { return len(g.deques) }

// Drain removes and returns every queued task in the group, deque by
// deque in top-to-bottom (FIFO) order. Crash recovery uses it to re-expose
// a dead node's unfinished regions for stealing elsewhere.
func (g *Group) Drain() []pairs.Region {
	var out []pairs.Region
	for _, d := range g.deques {
		for {
			r, ok := d.stealTop()
			if !ok {
				break
			}
			out = append(out, r)
		}
	}
	return out
}

// StealBestOverlap steals the top task whose item ranges overlap the
// thief's resident items (ascending, distinct) the most — the paper's
// §7 cache-aware stealing extension. Ties are broken towards the larger
// task; with no overlap anywhere it degrades to StealLocal semantics.
func (g *Group) StealBestOverlap(resident []int) (pairs.Region, bool) {
	best := -1
	bestOverlap := -1
	var bestCount int64
	for i, d := range g.deques {
		if d.Len() == 0 {
			continue
		}
		top := d.top()
		overlap := top.OverlapCount(resident)
		count := top.Count()
		if overlap > bestOverlap || (overlap == bestOverlap && count > bestCount) {
			best, bestOverlap, bestCount = i, overlap, count
		}
	}
	if best < 0 {
		return pairs.Region{}, false
	}
	return g.deques[best].stealTop()
}

// StealLocal steals the largest top task from any deque in the group other
// than the thief's own (pass except = -1 to consider all, as when serving
// a remote thief). It returns false if every other deque is empty.
func (g *Group) StealLocal(except int) (pairs.Region, bool) {
	best := -1
	var bestCount int64
	for i, d := range g.deques {
		if i == except {
			continue
		}
		if c := d.peekTopCount(); c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return pairs.Region{}, false
	}
	return g.deques[best].stealTop()
}
