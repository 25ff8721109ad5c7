package pairstore

// The residency index: what Snapshot.HasMany answers from.
//
// A delta planner asks about O(base²) keys in item order, while a
// segment keeps its rows in digest order, so the index answers a key
// without the blocks, in any order: two dictionary lookups and one set
// test per segment. Per segment it holds:
//
//   - a directory from each dictionary digest to its index;
//   - for each A index, the set of B indices its live rows pair it with:
//     a bitmap over the dictionary when that is no larger than the row's
//     packed indices (count × width ≥ len(dict) bits), else those
//     indices, sorted and bit-packed at the dictionary's width, searched
//     by binary search — the dense-or-sparse container rule of Roaring
//     bitmaps (Chambi, Lemire et al., SPE 2016);
//   - a second such set of the tombstone rows, when the segment has any.
//
// Each set is flat: per A index an offset into one word slice, counted
// in units of the index width, the row's length telling its kind (a
// bitmap takes ⌈len(dict)/width⌉ units, a packed row fewer). Units are
// 32 bits: no row takes more units than it has keys, and a segment holds
// fewer than 2³² rows. The directory buckets the sorted dictionary by
// the digests' top bits, one 32-bit entry per one to two digests: item
// digests are avalanched, so a bucket holds one or two and a binary
// search of it costs a comparison or two, and skewed digests cost no
// more than a search of the whole dictionary. (With a hash table of
// 32-bit slots at load ½ instead, the index of a 6 000-row seal
// outgrew its key columns.)
//
// Once built, the index also answers the point probes that pass the
// segment's bloom filter, so the block cache takes no more key columns
// of the segment.
//
// The first HasMany to visit a segment with a key whose two digests its
// dictionary holds builds the segment's index under the store lock,
// inflating each block's key columns once and caching none of them; a
// segment that holds no key of a plan is never indexed for it. The
// indexes of a store's live segments are bounded by indexLimit: a build
// that passes it drops the indexes of the segments the current HasMany
// has not read, least recently read first. The bound is soft — a batch
// never loses an index it has read. A segment compaction retired leaves
// the bound and keeps its index, which so lasts as long as the last
// snapshot that reads the segment: such a segment is indexed at most
// once, however many plans of old snapshots read it.

import (
	"math/bits"
	"slices"
)

// indexLimit bounds the bytes of the residency indexes a store keeps for
// its live segments: about 14 million rows at the ≈ 0.6 bytes per row
// of store_delta's indexes.
const indexLimit = 8 << 20

// resIndex is one segment's residency index.
type resIndex struct {
	used  uint64   // the HasMany call that read it last (blockCache.calls)
	dir   []uint32 // dir[b] is the first dictionary index whose digest's top bits are ≥ b
	shift uint     // 64 − log₂(len(dir) − 1)
	width uint     // bits per unit: the dictionary's index width, at least 1
	dense uint32   // units a bitmap row takes
	live  rowSet
	tomb  rowSet // empty unless the segment holds tombstones

	// lastA is the A digest looked up last and lastAt its dictionary
	// index + 1, 0 when the dictionary lacks it: a planner's keys come in
	// runs of one A, so most keys skip the A lookup. Written under the
	// store lock, like the index.
	lastA  Digest
	lastAt uint32
}

// rowSet is the B indices of each A index's rows: row a is units
// [off[a], off[a+1]) of words. off is nil for a set with no rows.
type rowSet struct {
	off   []uint32
	words []uint64
}

// index returns s's residency index, building it on the first call. A
// build that takes the live segments' indexes past the limit drops
// those of the segments the current HasMany has not read, least
// recently read first. The caller holds the store lock.
func (c *blockCache) index(s *segment) *resIndex {
	if s.res != nil {
		return s.res
	}
	s.res = s.buildIndex(c)
	s.res.used = c.calls
	if s.dead {
		return s.res
	}
	c.indexed = append(c.indexed, s)
	c.indexBytes += s.res.sizeBytes()
	for c.indexBytes > c.indexLimit {
		lru := -1
		for i, o := range c.indexed {
			if o.res.used < c.calls && (lru < 0 || o.res.used < c.indexed[lru].res.used) {
				lru = i
			}
		}
		if lru < 0 {
			break
		}
		c.unindex(lru).res = nil
	}
	return s.res
}

// unindex takes c.indexed[i] out of the bound and returns it.
func (c *blockCache) unindex(i int) *segment {
	s := c.indexed[i]
	c.indexBytes -= s.res.sizeBytes()
	c.indexed = slices.Delete(c.indexed, i, i+1)
	return s
}

// holdsDigests reports whether s's dictionary holds both of k's
// digests, which every key s holds a record of does. It remembers the
// last A digest the dictionary lacked: a plan's keys come in runs of
// one A, so a plan of other items costs a segment it never indexes one
// comparison per key.
func (s *segment) holdsDigests(k Key) bool {
	if s.lacksA.ok && s.lacksA.d == k.A {
		return false
	}
	if _, ok := slices.BinarySearch(s.dict, uint64(k.A)); !ok {
		s.lacksA.d, s.lacksA.ok = k.A, true
		return false
	}
	_, ok := slices.BinarySearch(s.dict, uint64(k.B))
	return ok
}

// buildIndex inflates every block's key columns once, counting each in
// BlockDecodes. A block that fails to decode adds no rows, so its keys
// read absent, as they do to point probes.
func (s *segment) buildIndex(c *blockCache) *resIndex {
	if uint64(s.rows) > 1<<32-1 {
		panic("pairstore: a segment of 2³² rows or more cannot be indexed")
	}
	dn := len(s.dict)
	x := &resIndex{width: max(1, bitWidth(uint64(max(dn, 1)-1)))}
	x.dense = uint32((uint(dn) + x.width - 1) / x.width)
	nb := 1 << (bits.Len(uint(max(dn, 1))) - 1) // the largest power of two ≤ len(dict)
	x.dir, x.shift = make([]uint32, nb+1), uint(65-bits.Len(uint(nb)))
	for _, v := range s.dict {
		x.dir[x.bucket(v)+1]++
	}
	for b := 1; b <= nb; b++ {
		x.dir[b] += x.dir[b-1]
	}
	if dn > 0 {
		x.lastA, x.lastAt = Digest(s.dict[0]), 1
	}
	live := newRowSetBuilder(x, dn, c.words)
	var tomb *rowSetBuilder
	if s.tombs > 0 {
		tomb = newRowSetBuilder(x, dn, nil)
	}
	for blk := range s.blocks {
		c.st.BlockDecodes++
		kb, err := s.decodeKeyCols(blk, &c.z)
		if err != nil {
			continue
		}
		for run, a := range kb.aVal {
			live.row(a)
			if tomb != nil {
				tomb.row(a)
			}
			for i := int(kb.aStart[run]); i < int(kb.aStart[run+1]); i++ {
				if tomb != nil && kb.isTomb(i) {
					tomb.bs = append(tomb.bs, kb.bAt(i))
				} else {
					live.bs = append(live.bs, kb.bAt(i))
				}
			}
		}
	}
	x.live, c.words = live.finish()
	if tomb != nil {
		x.tomb, _ = tomb.finish()
	}
	return x
}

// bucket is v's directory bucket: its top bits. A shift of 64 (a
// one-bucket directory) yields 0.
func (x *resIndex) bucket(v uint64) uint64 { return v >> x.shift }

// find returns d's dictionary index, if the dictionary holds it.
func (x *resIndex) find(dict []uint64, d Digest) (uint32, bool) {
	b := x.bucket(uint64(d))
	lo, end := x.dir[b], x.dir[b+1]
	for hi := end; lo < hi; {
		if m := lo + (hi-lo)/2; dict[m] < uint64(d) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < end && dict[lo] == uint64(d)
}

// lookup reports whether the segment holds a record of k (ok) and
// whether that record is live. A key whose two digests the dictionary
// holds marks the index read by HasMany call call.
func (x *resIndex) lookup(dict []uint64, k Key, call uint64) (live, ok bool) {
	if k.A != x.lastA {
		a, okA := x.find(dict, k.A)
		x.lastA, x.lastAt = k.A, 0
		if okA {
			x.lastAt = a + 1
		}
	}
	if x.lastAt == 0 {
		return false, false
	}
	b, okB := x.find(dict, k.B)
	if !okB {
		return false, false
	}
	x.used = call
	a := x.lastAt - 1
	if x.live.has(x, a, b) {
		return true, true
	}
	return false, x.tomb.off != nil && x.tomb.has(x, a, b)
}

// has reports whether row a holds b: one bit of a bitmap row, or a
// binary search of a packed one.
func (r *rowSet) has(x *resIndex, a, b uint32) bool {
	lo, end := r.off[a], r.off[a+1]
	if end-lo == x.dense {
		bit := uint64(lo)*uint64(x.width) + uint64(b)
		return r.words[bit/64]>>(bit%64)&1 != 0
	}
	for hi := end; lo < hi; {
		if m := lo + (hi-lo)/2; r.at(m, x.width) < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < end && r.at(lo, x.width) == b
}

// at reads unit u.
func (r *rowSet) at(u uint32, w uint) uint32 {
	bit := uint64(u) * uint64(w)
	i, sh := bit/64, uint(bit%64)
	v := r.words[i] >> sh
	if sh+w > 64 {
		v |= r.words[i+1] << (64 - sh)
	}
	return uint32(v & widthMask(w))
}

// rowSetBuilder makes a rowSet from keys arriving in (A, B) order.
type rowSetBuilder struct {
	x     *resIndex
	dn    uint64 // digests in the dictionary
	set   rowSet
	next  int      // the first A index whose offset is not yet written
	a     uint32   // the A index being collected
	bs    []uint32 // its B indices
	units uint32   // units written
}

// newRowSetBuilder starts a set whose words are built in scratch's
// storage (nil for new storage).
func newRowSetBuilder(x *resIndex, dn int, scratch []uint64) *rowSetBuilder {
	return &rowSetBuilder{
		x:   x,
		dn:  uint64(dn),
		set: rowSet{off: make([]uint32, dn+1), words: scratch[:0]},
	}
}

// row starts collecting A index a, writing the row collected before
// when it was another's. The caller appends a's B indices to bs.
func (b *rowSetBuilder) row(a uint32) {
	if len(b.bs) > 0 && a != b.a {
		b.flush()
	}
	b.a = a
}

// flush writes the collected row: a bitmap when its packed indices
// would take at least as many bits as the dictionary has digests.
func (b *rowSetBuilder) flush() {
	for ; b.next <= int(b.a); b.next++ {
		b.set.off[b.next] = b.units
	}
	w, n := b.x.width, uint32(len(b.bs))
	dense := uint64(n)*uint64(w) >= b.dn
	if dense {
		n = b.x.dense
	}
	for end := (uint64(b.units+n)*uint64(w) + 63) / 64; uint64(len(b.set.words)) < end; {
		b.set.words = append(b.set.words, 0)
	}
	words, start := b.set.words, uint64(b.units)*uint64(w)
	for i, v := range b.bs {
		if dense {
			bit := start + uint64(v)
			words[bit/64] |= 1 << (bit % 64)
			continue
		}
		bit := start + uint64(i)*uint64(w)
		j, sh := bit/64, uint(bit%64)
		words[j] |= uint64(v) << sh
		if sh+w > 64 {
			words[j+1] |= uint64(v) >> (64 - sh)
		}
	}
	b.units += n
	b.bs = b.bs[:0]
}

// finish writes the last row and the offsets of the empty rows after it,
// and copies the words out of the storage they were built in, which it
// returns for the next build. So a build allocates its words once, at
// their final size, and leaves no large garbage: five cycles of
// `store_delta`'s ingest, reload, plan and Gets, each store kept, peaked
// ≈ 16 MB lower in resident memory than with words grown in place and
// trimmed by a copy.
func (b *rowSetBuilder) finish() (rowSet, []uint64) {
	if len(b.bs) > 0 {
		b.flush()
	}
	for ; b.next < len(b.set.off); b.next++ {
		b.set.off[b.next] = b.units
	}
	scratch := b.set.words
	b.set.words = append([]uint64(nil), scratch...)
	return b.set, scratch
}

// sizeBytes is the index's resident footprint.
func (x *resIndex) sizeBytes() int64 {
	return int64(4*(len(x.dir)+len(x.live.off)+len(x.tomb.off)) + 8*(len(x.live.words)+len(x.tomb.words)))
}
