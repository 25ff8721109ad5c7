// Package cache implements the software-managed slot cache used at the
// first (device) and second (host) levels of Rocket's memory hierarchy
// (paper §4.1.1–4.1.2).
//
// A cache manages a fixed number of fixed-size slots. Each slot holds one
// item and is either being written (WRITE: one writer filling it) or
// readable (READ: n concurrent readers). On a miss the least-recently-used
// unpinned slot is evicted and handed to the requester as a write lease;
// jobs that request an item mid-write block until the writer publishes.
// All waiting is in virtual time via internal/sim.
package cache

import (
	"fmt"
	"slices"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Policy selects the eviction victim among unpinned slots.
type Policy int

const (
	// PolicyLRU evicts the least-recently-used unpinned slot (the paper's
	// policy, §4.1.1).
	PolicyLRU Policy = iota
	// PolicyRandom evicts a uniformly random unpinned slot; used by the
	// eviction ablation to quantify how much LRU contributes to data
	// reuse under the divide-and-conquer traversal.
	PolicyRandom
)

// state of a slot.
type state int

const (
	stateEmpty state = iota
	stateWrite
	stateRead
)

type slot struct {
	item    int // -1 when empty
	st      state
	readers int
	data    interface{} // optional payload (real-kernel mode)
	// prev/next link the slot into the LRU ring while evictable; both are
	// nil while the slot is pinned or mid-write. Intrusive links avoid a
	// container/list element allocation on every pin/release cycle.
	prev, next *slot
	// waiting holds the acquisitions suspended while a writer fills the
	// slot; Publish and Abort wake them to re-check its state.
	waiting []acquirer
}

// lruList is an intrusive doubly-linked list of evictable slots, least
// recently used at the front. The zero value is not ready; call init.
type lruList struct {
	root slot // sentinel: root.next is the front, root.prev the back
	n    int
}

func (l *lruList) init() {
	l.root.next = &l.root
	l.root.prev = &l.root
}

func (l *lruList) len() int { return l.n }

// front returns the least-recently-used slot, or nil when empty.
func (l *lruList) front() *slot {
	if l.n == 0 {
		return nil
	}
	return l.root.next
}

func (l *lruList) insert(s, after *slot) {
	s.prev = after
	s.next = after.next
	s.prev.next = s
	s.next.prev = s
	l.n++
}

// pushBack appends s at the most-recently-used end.
func (l *lruList) pushBack(s *slot) { l.insert(s, l.root.prev) }

// pushFront prepends s at the least-recently-used end.
func (l *lruList) pushFront(s *slot) { l.insert(s, &l.root) }

// remove unlinks s; s.onList() turns false.
func (l *lruList) remove(s *slot) {
	s.prev.next = s.next
	s.next.prev = s.prev
	s.prev = nil
	s.next = nil
	l.n--
}

// moveToBack re-positions s at the most-recently-used end.
func (l *lruList) moveToBack(s *slot) {
	l.remove(s)
	l.pushBack(s)
}

// onList reports whether the slot is linked into the LRU ring.
func (s *slot) onList() bool { return s.next != nil }

// Stats counts cache activity.
type Stats struct {
	Hits      uint64 // item present in READ state
	WaitHits  uint64 // item present but in WRITE state; requester waited
	Misses    uint64 // item absent; write lease issued
	Evictions uint64 // slots whose previous content was discarded
	Stalls    uint64 // acquisitions that had to wait for a free slot
}

// acquirer is one suspended acquisition: the arguments of an AcquireFunc
// call to re-attempt.
type acquirer struct {
	item int
	fn   func(h Handle, hit bool)
}

// Cache is a fixed-capacity slot cache. It is not safe for OS-level
// concurrency; all access happens in simulation context (scheduler
// callbacks).
type Cache struct {
	name     string
	slotSize int64
	slots    []*slot
	// index[item] is the slot holding item (READ or WRITE), nil when the
	// item is absent or beyond the table, which grows on demand to the
	// largest item ever stored; resident counts its non-nil entries. Items
	// are dense small integers, so a lookup is one bounds check and a load.
	index    []*slot
	resident int
	// lru holds evictable slots (READ with zero readers, or empty), least
	// recently used at the front.
	lru lruList
	// freeWaiters are acquisitions suspended because every slot was pinned.
	freeWaiters []acquirer
	// retries queues woken AcquireFunc calls until their retry event
	// dispatches: each wake-up pushes one entry and defers retryFn
	// (retryNext, bound once) once, so entries pop in event order.
	retries   []acquirer
	retryHead int
	retryFn   func()
	stats     Stats
	policy    Policy
	rng       *stats.RNG
}

// New returns an LRU cache with the given number of slots, each slotSize
// bytes. Capacity zero is allowed and behaves as a cache that always
// misses with no slot to give — callers must handle Acquire never
// succeeding, so the runtime treats a zero-capacity cache as "disabled"
// before calling.
func New(name string, capacity int, slotSize int64) *Cache {
	return NewWithPolicy(name, capacity, slotSize, PolicyLRU, nil)
}

// NewWithPolicy returns a cache with an explicit eviction policy.
// PolicyRandom requires a generator; PolicyLRU ignores it.
func NewWithPolicy(name string, capacity int, slotSize int64, policy Policy, rng *stats.RNG) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache %q: negative capacity %d", name, capacity))
	}
	if policy == PolicyRandom && rng == nil {
		panic(fmt.Sprintf("cache %q: PolicyRandom requires an RNG", name))
	}
	c := &Cache{
		name:     name,
		slotSize: slotSize,
		policy:   policy,
		rng:      rng,
	}
	c.lru.init()
	c.retryFn = c.retryNext
	for i := 0; i < capacity; i++ {
		s := &slot{item: -1, st: stateEmpty}
		c.lru.pushBack(s)
		c.slots = append(c.slots, s)
	}
	return c
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// Cap returns the number of slots.
func (c *Cache) Cap() int { return len(c.slots) }

// SlotSize returns the configured slot size in bytes.
func (c *Cache) SlotSize() int64 { return c.slotSize }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether item is present in READ state (a peek that does
// not pin or touch LRU order), used by the distributed cache server.
func (c *Cache) Contains(item int) bool {
	s := c.lookup(item)
	return s != nil && s.st == stateRead
}

// lookup returns the slot holding item, or nil.
func (c *Cache) lookup(item int) *slot {
	if uint(item) < uint(len(c.index)) {
		return c.index[item]
	}
	return nil
}

// bind records s as the slot holding item.
func (c *Cache) bind(item int, s *slot) {
	if item >= len(c.index) {
		c.Reserve(max(item+1, 2*len(c.index)))
	}
	c.index[item] = s
	c.resident++
}

// unbind forgets the resident item.
func (c *Cache) unbind(item int) {
	c.index[item] = nil
	c.resident--
}

// Resident returns the number of items currently stored (READ or WRITE).
func (c *Cache) Resident() int { return c.resident }

// Reserve sizes the item index for the items below n. A caller that knows
// how many items its data set has pays for the index once; without the
// call, and for items beyond n, the index grows as items arrive.
func (c *Cache) Reserve(n int) {
	if n > len(c.index) {
		grown := make([]*slot, n)
		copy(grown, c.index)
		c.index = grown
	}
}

// Pinned returns the number of slots held by a lease (read or write) and
// therefore not evictable; an idle cache reports zero.
func (c *Cache) Pinned() int { return len(c.slots) - c.lru.len() }

// Items returns up to max resident READ items in ascending order (0 = no
// limit). Used by cache-aware stealing to describe a node's working set.
func (c *Cache) Items(max int) []int {
	out := make([]int, 0, c.resident)
	for _, s := range c.slots {
		if s.st == stateRead {
			out = append(out, s.item)
		}
	}
	slices.Sort(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Warm inserts an item directly in READ state without charging any
// pipeline cost, taking an evictable slot. It models a persistent cache
// surviving from a previous run. It reports false when the item is
// already present or no slot is free, and must only be used during
// initialization (before any acquisition suspends on the cache).
func (c *Cache) Warm(item int, data interface{}) bool {
	if item < 0 {
		panic(fmt.Sprintf("cache %q: negative item %d", c.name, item))
	}
	if c.lookup(item) != nil {
		return false
	}
	s := c.lru.front()
	if s == nil {
		return false
	}
	if s.item >= 0 {
		// Warming never evicts live data; it only consumes empty slots.
		return false
	}
	s.item = item
	s.st = stateRead
	s.readers = 0
	s.data = data
	c.bind(item, s)
	c.lru.moveToBack(s)
	return true
}

// Peek returns the payload of an item in READ state without pinning it or
// touching LRU order. It returns nil when the item is absent or being
// written. Peeked payloads must be immutable: they may be shared with a
// concurrent eviction.
func (c *Cache) Peek(item int) interface{} {
	s := c.lookup(item)
	if s == nil || s.st != stateRead {
		return nil
	}
	return s.data
}

// Handle is a lease on a slot. A read lease (Write == false) grants access
// to the slot's data until Release. A write lease (Write == true) obliges
// the holder to fill the slot and then call Publish (keeping a read lease)
// or Abort. A Handle is a value owned by whoever acquired it; a copy is a
// second reference to the same lease, not a second lease.
type Handle struct {
	c     *Cache
	s     *slot
	item  int
	Write bool
	done  bool
}

// Item returns the item this handle refers to.
func (h *Handle) Item() int { return h.item }

// Data returns the slot payload (valid for read leases and for write
// leases after SetData).
func (h *Handle) Data() interface{} { return h.s.data }

// SetData stores the payload into the slot. Only the write-lease holder
// may call it.
func (h *Handle) SetData(d interface{}) {
	if !h.Write {
		panic("cache: SetData on read lease")
	}
	h.s.data = d
}

// AcquireFunc obtains item from the cache: fn receives the handle and the
// hit flag once the item is available. On a hit the handle is a read
// lease; on a miss the item was absent and the handle is a write lease on
// a freshly assigned slot. When the item is resident in READ state, or a
// slot is immediately evictable, fn runs inline before AcquireFunc
// returns. Otherwise the acquisition is re-attempted in scheduler context
// each time the blocking condition (a write in progress, or every slot
// pinned) clears. fn must not block.
func (c *Cache) AcquireFunc(item int, fn func(h Handle, hit bool)) {
	c.validateAcquire(item)
	c.acquireStep(acquirer{item: item, fn: fn})
}

func (c *Cache) acquireStep(a acquirer) {
	h, hit, writing, ok := c.tryOnce(a.item)
	switch {
	case ok:
		a.fn(h, hit)
	case writing != nil:
		writing.waiting = append(writing.waiting, a)
	default:
		c.freeWaiters = append(c.freeWaiters, a)
	}
}

// wake resumes suspended acquisitions in the order they suspended, one
// retry event each.
func (c *Cache) wake(e *sim.Env, ws []acquirer) {
	for _, w := range ws {
		c.retries = append(c.retries, w)
		e.Defer(c.retryFn)
	}
	clear(ws)
}

// retryNext re-attempts the longest-woken AcquireFunc call.
func (c *Cache) retryNext() {
	a := c.retries[c.retryHead]
	c.retries[c.retryHead] = acquirer{}
	c.retryHead++
	if c.retryHead == len(c.retries) {
		// Drained (at the latest when the clock moves on): reuse the buffer.
		c.retries, c.retryHead = c.retries[:0], 0
	}
	c.acquireStep(a)
}

func (c *Cache) validateAcquire(item int) {
	if len(c.slots) == 0 {
		panic(fmt.Sprintf("cache %q: Acquire on zero-capacity cache", c.name))
	}
	if item < 0 {
		panic(fmt.Sprintf("cache %q: negative item %d", c.name, item))
	}
}

// tryOnce performs one non-blocking acquisition attempt. ok reports
// success; otherwise writing is the slot another job is filling with the
// item, or nil when every slot is pinned (the caller suspends on the slot,
// or on freeWaiters).
func (c *Cache) tryOnce(item int) (h Handle, hit bool, writing *slot, ok bool) {
	if s := c.lookup(item); s != nil {
		switch s.st {
		case stateRead:
			c.stats.Hits++
			c.pin(s)
			return Handle{c: c, s: s, item: item}, true, nil, true
		case stateWrite:
			c.stats.WaitHits++
			return Handle{}, false, s, false
		default:
			panic(fmt.Sprintf("cache %q: indexed slot in empty state", c.name))
		}
	}
	// Miss: take an evictable slot per the configured policy.
	s := c.victim()
	if s == nil {
		c.stats.Stalls++
		return Handle{}, false, nil, false
	}
	c.lru.remove(s)
	if s.item >= 0 {
		c.stats.Evictions++
		c.unbind(s.item)
	}
	c.stats.Misses++
	s.item = item
	s.st = stateWrite
	s.readers = 0
	s.data = nil
	c.bind(item, s)
	return Handle{c: c, s: s, item: item, Write: true}, false, nil, true
}

// victim selects the slot to evict: the list front for LRU (least
// recently used), or a uniformly random list element for PolicyRandom.
// Empty slots are still preferred under PolicyRandom: evicting live data
// while free slots exist would be strictly wasteful.
func (c *Cache) victim() *slot {
	if c.policy == PolicyLRU || c.lru.len() <= 1 {
		return c.lru.front()
	}
	if front := c.lru.front(); front.item < 0 {
		return front
	}
	k := c.rng.Intn(c.lru.len())
	s := c.lru.front()
	for i := 0; i < k; i++ {
		s = s.next
	}
	return s
}

// pin marks one more reader on a READ slot, removing it from the LRU list
// if it was evictable.
func (c *Cache) pin(s *slot) {
	s.readers++
	if s.onList() {
		c.lru.remove(s)
	}
}

// Publish transitions a write lease to READ state and downgrades the
// handle to a read lease, waking all jobs waiting on the item.
func (h *Handle) Publish(e *sim.Env) {
	if !h.Write || h.done {
		panic("cache: Publish on non-write or finished handle")
	}
	h.Write = false
	s := h.s
	s.st = stateRead
	s.readers = 1
	h.c.wake(e, s.waiting)
	s.waiting = s.waiting[:0]
}

// Abort cancels a write lease (for example the load failed); the slot
// returns to empty and waiters retry.
func (h *Handle) Abort(e *sim.Env) {
	if !h.Write || h.done {
		panic("cache: Abort on non-write or finished handle")
	}
	h.done = true
	c, s := h.c, h.s
	c.unbind(s.item)
	s.item = -1
	s.st = stateEmpty
	s.readers = 0
	s.data = nil
	c.lru.pushFront(s) // empty slots are the first eviction choice
	c.wake(e, s.waiting)
	s.waiting = s.waiting[:0]
	c.wakeFreeWaiters(e)
}

// Release ends a read lease. When the last reader leaves, the slot becomes
// evictable and is appended at the most-recently-used end.
func (h *Handle) Release(e *sim.Env) {
	if h.Write {
		panic("cache: Release on unpublished write lease (Publish or Abort first)")
	}
	if h.done {
		panic("cache: double Release")
	}
	h.done = true
	c, s := h.c, h.s
	if s.readers <= 0 {
		panic(fmt.Sprintf("cache %q: release with no readers", c.name))
	}
	s.readers--
	if s.readers == 0 {
		c.lru.pushBack(s)
		c.wakeFreeWaiters(e)
	}
}

func (c *Cache) wakeFreeWaiters(e *sim.Env) {
	c.wake(e, c.freeWaiters)
	c.freeWaiters = c.freeWaiters[:0]
}

// checkInvariants validates internal consistency; used by tests.
func (c *Cache) checkInvariants() error {
	resident := 0
	evictable := 0
	for _, s := range c.slots {
		if s.item >= 0 {
			resident++
			if c.lookup(s.item) != s {
				return fmt.Errorf("slot item %d not indexed", s.item)
			}
		}
		switch s.st {
		case stateWrite:
			if s.readers != 0 {
				return fmt.Errorf("WRITE slot with %d readers", s.readers)
			}
			if s.onList() {
				return fmt.Errorf("WRITE slot on LRU list")
			}
		case stateRead:
			if s.readers > 0 && s.onList() {
				return fmt.Errorf("pinned slot on LRU list")
			}
			if s.readers == 0 && !s.onList() {
				return fmt.Errorf("unpinned READ slot missing from LRU list")
			}
		case stateEmpty:
			if s.item != -1 || s.readers != 0 {
				return fmt.Errorf("dirty empty slot")
			}
			if !s.onList() {
				return fmt.Errorf("empty slot missing from LRU list")
			}
		}
		if s.onList() {
			evictable++
		}
	}
	indexed := 0
	for _, s := range c.index {
		if s != nil {
			indexed++
		}
	}
	if resident != indexed || resident != c.resident {
		return fmt.Errorf("%d slots hold an item, %d are indexed, resident count %d", resident, indexed, c.resident)
	}
	if evictable != c.lru.len() {
		return fmt.Errorf("lru list length %d != evictable %d", c.lru.len(), evictable)
	}
	return nil
}
