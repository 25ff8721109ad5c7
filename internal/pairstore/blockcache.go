package pairstore

// The probe-side block cache: the decoded key columns of sealed blocks,
// shared by every segment of a store and bounded in bytes.
//
// A delta planner walks pairs in item order while segments are sorted
// by digest, so successive probe batches land on the same few blocks of
// every segment again and again; inflating a block per visit was the
// planner's dominant cost (17.7 decodes per block on a 2.0M-pair plan).
// Membership needs only the key columns and the tombstone bitmap, so
// those are what is kept — the B column still bit-packed, ≈ 1.5 bytes
// per row at a 2 000-digest dictionary. While blockCacheLimit covers
// the blocks a plan touches each is decoded once; beyond it the least
// recently used are dropped and decoded again on their next visit. The
// store lock every probe path already holds guards all of it.

import (
	"encoding/binary"
	"slices"
)

// blockCacheLimit bounds the decoded key columns a store keeps, in
// bytes: about five million rows at 11-bit dictionary indices.
const blockCacheLimit = 8 << 20

// keyBlock is the probe-side decoded form of one block. The A column
// never decreases within a block, so it is kept as runs: the distinct
// dictionary indices and the row each run starts at. B indices ascend
// within a run.
type keyBlock struct {
	aVal   []uint32 // distinct A dictionary indices, ascending
	aStart []uint32 // aStart[r] is run r's first row; len(aVal)+1 entries
	b      []byte   // B dictionary indices, width bits each, 8 bytes of padding
	width  uint
	mask   uint64
	tomb   []byte // bitmap, (rows+7)/8 bytes

	// Cache bookkeeping: the owner and the LRU list links.
	seg        *segment
	blk        int
	prev, next *keyBlock
}

func (kb *keyBlock) isTomb(i int) bool { return kb.tomb[i/8]&(1<<(i%8)) != 0 }

// bAt returns row i's B dictionary index.
func (kb *keyBlock) bAt(i int) uint32 {
	off := uint(i) * kb.width
	return uint32(binary.LittleEndian.Uint64(kb.b[off/8:]) >> (off % 8) & kb.mask)
}

// bytes is the block's charge against blockCacheLimit.
func (kb *keyBlock) bytes() int64 {
	const structBytes = 160
	return structBytes + int64(4*(len(kb.aVal)+len(kb.aStart))+len(kb.b)+len(kb.tomb))
}

// gallop returns the first index of ascending s holding a value ≥ v
// (len(s) if none), in O(log answer): the probes of a sorted walk land
// a few entries past the previous one.
func gallop(s []uint64, v uint64) int {
	lo, step := 0, 1
	for lo+step <= len(s) && s[lo+step-1] < v {
		lo += step
		step *= 2
	}
	i, _ := slices.BinarySearch(s[lo:min(lo+step, len(s))], v)
	return lo + i
}

// gallopB is gallop over rows [lo, hi) of the packed B column.
func (kb *keyBlock) gallopB(lo, hi int, v uint32) int {
	step := 1
	for lo+step <= hi && kb.bAt(lo+step-1) < v {
		lo += step
		step *= 2
	}
	hi = min(lo+step, hi)
	for lo < hi {
		if mid := int(uint(lo+hi) / 2); kb.bAt(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek advances a (run, row) cursor to the first row at or after key
// (ai, bi) and reports whether that row holds exactly it. Keys must be
// sought in ascending order; (0, 0) starts a walk or a point probe.
func (kb *keyBlock) seek(run, pos int, ai, bi uint32) (int, int, bool) {
	if run < len(kb.aVal) && kb.aVal[run] < ai {
		next, _ := slices.BinarySearch(kb.aVal[run:], ai)
		run += next
		pos = int(kb.aStart[run])
	}
	if run == len(kb.aVal) || kb.aVal[run] != ai {
		return run, pos, false
	}
	end := int(kb.aStart[run+1])
	pos = kb.gallopB(pos, end, bi)
	return run, pos, pos < end && kb.bAt(pos) == bi
}

// decodeKeyCols decodes block i's key columns and tombstone bitmap,
// skipping versions and values. The payload checksum is verified and
// every malformed field is a *CorruptError, as in decodeBlock.
func (s *segment) decodeKeyCols(i int, z *inflater) (*keyBlock, error) {
	r, n, err := s.blockPayload(i, z)
	if err != nil {
		return nil, err
	}
	dn := uint64(len(s.dict))
	kb := &keyBlock{width: bitWidth(dn - 1)}
	kb.mask = widthMask(kb.width)
	var a uint64
	for k := 0; k < n; k++ {
		delta, err := r.uvarint("block")
		if err != nil {
			return nil, err
		}
		if delta >= dn-a {
			return nil, corrupt("block", "row %d references dictionary index beyond %d", k, dn)
		}
		if a += delta; k == 0 || delta != 0 {
			kb.aVal = append(kb.aVal, uint32(a))
			kb.aStart = append(kb.aStart, uint32(k))
		}
	}
	kb.aStart = append(kb.aStart, uint32(n))
	// The payload is z's buffer: both columns are copied out of it.
	packed, err := r.bytes((n*int(kb.width)+7)/8, "block")
	if err != nil {
		return nil, err
	}
	kb.b = append(make([]byte, 0, len(packed)+8), packed...)[:len(packed)+8]
	for k := 0; k < n; k++ {
		if uint64(kb.bAt(k)) >= dn {
			return nil, corrupt("block", "row %d references dictionary index beyond %d", k, dn)
		}
	}
	tomb, err := r.bytes((n+7)/8, "block")
	if err != nil {
		return nil, err
	}
	if err := s.checkTombs(i, tomb); err != nil {
		return nil, err
	}
	kb.tomb = append([]byte(nil), tomb...)
	return kb, nil
}

// blockCache is the store-wide LRU of key blocks plus the scratch the
// probe paths reuse under the same lock.
type blockCache struct {
	limit  int64 // blockCacheLimit, except in tests
	bytes  int64
	lru    keyBlock // list sentinel: lru.next is the most recently used
	z      inflater
	probes []probe // HasMany's sort buffer
	st     *Stats
}

func (c *blockCache) init(st *Stats) {
	c.limit, c.st = blockCacheLimit, st
	c.lru.next, c.lru.prev = &c.lru, &c.lru
}

func (c *blockCache) touch(kb *keyBlock) {
	if kb.prev != nil {
		kb.prev.next, kb.next.prev = kb.next, kb.prev
	}
	kb.prev, kb.next = &c.lru, c.lru.next
	kb.prev.next, kb.next.prev = kb, kb
}

func (c *blockCache) evict(kb *keyBlock) {
	kb.prev.next, kb.next.prev = kb.next, kb.prev
	kb.seg.kb[kb.blk] = nil
	c.bytes -= kb.bytes()
}

// keyCols returns block blk of s as key columns: from the cache, or
// decoded and cached, evicting the least recently used blocks beyond
// the limit. A block of a dead segment, or one larger than the whole
// limit, is decoded but not kept.
func (c *blockCache) keyCols(s *segment, blk int) (*keyBlock, error) {
	if s.kb != nil && s.kb[blk] != nil {
		c.st.BlockCacheHits++
		c.touch(s.kb[blk])
		return s.kb[blk], nil
	}
	c.st.BlockDecodes++
	kb, err := s.decodeKeyCols(blk, &c.z)
	if err != nil || s.dead || kb.bytes() > c.limit {
		return kb, err
	}
	if s.kb == nil {
		s.kb = make([]*keyBlock, len(s.blocks))
	}
	kb.seg, kb.blk, s.kb[blk] = s, blk, kb
	c.touch(kb)
	for c.bytes += kb.bytes(); c.bytes > c.limit; {
		c.evict(c.lru.prev)
	}
	return kb, nil
}

// drop releases the cached blocks of segments compaction has replaced.
func (c *blockCache) drop(segs []*segment) {
	for _, s := range segs {
		for _, kb := range s.kb {
			if kb != nil {
				c.evict(kb)
			}
		}
		s.kb, s.dead = nil, true
	}
}

// probe is one unresolved HasMany key and its position in the batch.
type probe struct {
	k Key
	i int
}

// probeSorted resolves probes, sorted by key, against the segment in
// one forward merge-walk. out[p.i] is set for every key the segment
// holds; the rest are returned, still sorted, packed into the front of
// probes.
func (s *segment) probeSorted(probes []probe, out []bool, c *blockCache) []probe {
	rest := probes[:0]
	w := segWalk{s: s, c: c}
	for _, p := range probes {
		if tomb, ok := w.find(p.k); ok {
			out[p.i] = !tomb
		} else {
			rest = append(rest, p)
		}
	}
	return rest
}

// segWalk is the state of one merge-walk: cursors into the dictionary
// (A resolved once per run of equal A, B galloped from the previous
// one), the block fences, and the current block's key columns. All of
// them only move forward, so keys must arrive in ascending order.
type segWalk struct {
	s        *segment
	c        *blockCache
	ai, bi   int // dictionary cursors for A and, within one A, for B
	blk      int
	kb       *keyBlock // key columns of block blk, once a probe needed them
	run, pos int       // cursor inside kb
}

func (w *segWalk) find(k Key) (tomb, ok bool) {
	s := w.s
	if w.ai < len(s.dict) && s.dict[w.ai] < uint64(k.A) { // a new run of A
		w.ai += gallop(s.dict[w.ai:], uint64(k.A))
		w.bi = 0
	}
	if w.ai == len(s.dict) || s.dict[w.ai] != uint64(k.A) {
		return false, false
	}
	w.bi += gallop(s.dict[w.bi:], uint64(k.B))
	for w.blk < len(s.blocks) && keyLess(s.blocks[w.blk].last, k) {
		w.blk++
		w.kb, w.run, w.pos = nil, 0, 0
	}
	if w.bi == len(s.dict) || s.dict[w.bi] != uint64(k.B) ||
		w.blk == len(s.blocks) || keyLess(k, s.blocks[w.blk].first) {
		return false, false
	}
	// The bloom filter is consulted only where the exact lookup would
	// have to inflate the block: against cached key columns that lookup
	// is a few comparisons, cheaper than the filter's seven probes.
	filtered := w.kb == nil && (s.kb == nil || s.kb[w.blk] == nil)
	if filtered {
		w.c.st.BloomProbes++
		if !s.filter.test(k) {
			w.c.st.BloomNegatives++
			return false, false
		}
	}
	if w.kb == nil {
		if w.kb, _ = w.c.keyCols(s, w.blk); w.kb == nil {
			return false, false // corrupt block: reported absent, as by point probes
		}
	}
	if w.run, w.pos, ok = w.kb.seek(w.run, w.pos, uint32(w.ai), uint32(w.bi)); !ok {
		if filtered {
			w.c.st.BloomFalsePositives++
		}
		return false, false
	}
	return w.kb.isTomb(w.pos), true
}
