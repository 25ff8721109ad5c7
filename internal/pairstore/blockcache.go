package pairstore

// The point-probe block cache: the decoded key columns of sealed blocks,
// shared by every segment of a store and bounded in bytes.
//
// Point probes (Get, Put's and Merge's duplicate checks, retract) that
// pass the bloom filter of a segment without a residency index decide
// membership from a block's key columns and tombstone bitmap, so those
// are what is kept — the B column still bit-packed, ≈ 1.5 bytes per row
// at a 2 000-digest dictionary.
// A retried job merges keys the store already holds, landing on the same
// blocks again and again; while blockCacheLimit covers them each is
// decoded once, and beyond it the least recently used are dropped and
// decoded again on their next visit. Batch probes do not come here, nor
// point probes of a segment a batch has indexed: they read the
// residency index (resindex.go), which holds the same answers. The
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

// row returns the row holding key (ai, bi) and whether there is one.
func (kb *keyBlock) row(ai, bi uint32) (int, bool) {
	run, ok := slices.BinarySearch(kb.aVal, ai)
	if !ok {
		return 0, false
	}
	lo, end := int(kb.aStart[run]), int(kb.aStart[run+1])
	for hi := end; lo < hi; {
		if mid := int(uint(lo+hi) / 2); kb.bAt(mid) < bi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && kb.bAt(lo) == bi
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

// blockCache is the store-wide LRU of key blocks plus the inflater the
// probe paths, Get hits' row reads and index builds reuse under the same
// lock. It also keeps the books of the residency indexes (resindex.go):
// the live segments that have one, their bytes, the count of HasMany
// calls, and the words an index build writes before copying them out,
// kept for the builds of the same HasMany.
type blockCache struct {
	limit int64 // blockCacheLimit, except in tests
	bytes int64
	lru   keyBlock // list sentinel: lru.next is the most recently used
	z     inflater
	st    *Stats

	indexed    []*segment
	indexBytes int64
	indexLimit int64 // indexLimit, except in tests
	calls      uint64
	words      []uint64
}

func (c *blockCache) init(st *Stats) {
	c.limit, c.indexLimit, c.st = blockCacheLimit, indexLimit, st
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

// drop releases the cached blocks of segments compaction has replaced
// and takes their residency indexes out of the bound, leaving them to
// the snapshots that still read the segments.
func (c *blockCache) drop(segs []*segment) {
	for _, s := range segs {
		for _, kb := range s.kb {
			if kb != nil {
				c.evict(kb)
			}
		}
		if i := slices.Index(c.indexed, s); i >= 0 {
			c.unindex(i)
		}
		s.kb, s.dead = nil, true
	}
}
