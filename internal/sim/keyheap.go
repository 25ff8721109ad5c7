package sim

import "math/bits"

// key is the sift-able entry of a keyHeap: the ordering fields of one
// queued entry plus the slab index of its payload. At 24 pointer-free
// bytes, a sift step copies three words and pays no GC write barrier,
// whatever the payload holds.
type key struct {
	at  Time
	seq uint64
	src uint32
	idx int32
}

// below is 1 when a orders strictly before b in (at, src, seq) order and 0
// otherwise, computed without a branch: (at, src, seq) read as one
// unsigned number with at most significant, and the borrow out of a - b
// is a < b. Flipping at's sign bit maps int64 order onto uint64 order.
// The keys come by value: a key spilled as two 32-bit halves and reloaded
// as one word would stall store forwarding on every push.
func below(a, b key) uint64 {
	_, c := bits.Sub64(a.seq, b.seq, 0)
	_, c = bits.Sub64(uint64(a.src), uint64(b.src), c)
	_, c = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, c)
	return c
}

// pick returns a when sel is 0 and b when sel is 1, without a branch.
func pick(sel uint64, a, b int) int { return a ^ (a^b)&-int(sel) }

// keyHeap is a 4-ary min-heap of keys in (at, src, seq) order, the heap
// under the Env's event queue. The queue gives every entry a unique seq,
// so the order is total and the pop sequence depends on the keys alone,
// not on the arity or the sift. A 4-ary heap is half as deep as a binary
// one, and a family of four keys spans 96 bytes, two or three cache
// lines. Sifts move a hole instead of swapping entries, and pick the
// least child by arithmetic select: in a deep queue such as the fleet's
// timers, which child is least is unpredictable, and a branch on it
// mispredicts (BenchmarkEventQueueChurn).
type keyHeap []key

// push adds k, growing the backing array in bulk when it is full.
func (h *keyHeap) push(k key) {
	if len(*h) == cap(*h) {
		*h = append(make(keyHeap, 0, growCap(cap(*h))), *h...)
	}
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if below(k, s[p]) == 0 {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
}

// pop removes and returns the least key; the heap must not be empty. The
// slot one past the new length is left to the caller.
func (h *keyHeap) pop() key {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	*h = (*h)[:n]
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		var m int
		if c+4 <= n {
			f := (*[4]key)(s[c : c+4])
			a := pick(below(f[1], f[0]), 0, 1)
			b := pick(below(f[3], f[2]), 2, 3)
			m = c + pick(below(f[b], f[a]), a, b)
		} else {
			m = c
			for j := c + 1; j < n; j++ {
				m = pick(below(s[j], s[m]), m, j)
			}
		}
		if below(s[m], last) == 0 {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}
