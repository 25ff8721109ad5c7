package pairstore

// An immutable, digest-sorted, columnar segment: the unit the store's
// sealed levels are made of.
//
// Layout. Entries are sorted by key (A, then B) and split into
// fixed-size blocks. Per block, the key columns are dictionary-encoded
// against the segment's sorted digest dictionary — a pair becomes two
// small indices — then the A column (non-decreasing within a block) is
// delta+varint encoded and the B column bit-packed at the dictionary's
// bit width. Version and value-length columns are varint-encoded;
// values are stored verbatim. Each block is individually compressed
// (flate, kept only when it shrinks) and checksummed.
//
// Why this beats raw 16-byte keys: a segment over d distinct digests
// spends 8·d bytes on the dictionary once, then ~(8 + ⌈log₂ d⌉)/8
// bytes per pair on keys — about 2.5 bytes/pair at a million pairs
// instead of 16, before compression. All-pairs workloads have d ≈
// √(2·pairs), so the dictionary is a vanishing fraction of the file.
//
// Resident footprint. Only the fence index (per-block first/last keys),
// the digest dictionary, and the bloom filter stay decoded in memory;
// the block payloads are opaque bytes decoded on demand (their key
// columns held in the store's bounded block cache, blockcache.go). That
// bounded index is what lets delta planning push predicates down — skip
// whole segments by fence and bloom, whole blocks by fence — instead of
// holding a per-pair map resident.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
)

// blockRows is the number of entries per block. 4096 rows keeps a
// decoded block around 100KB and the fence index at ~1/100th of a
// percent of the data.
const blockRows = 4096

// row is one segment entry in decoded form.
type row struct {
	key  Key
	ver  int
	tomb bool
	val  []byte
}

func keyLess(a, b Key) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

type blockMeta struct {
	first, last Key
	rows        int
	off, length int
}

type segment struct {
	id      uint64
	rows    int
	tombs   int
	minKey  Key
	maxKey  Key
	modeled int64 // modeled log bytes (EntryOverheadBytes + value length per row)

	dict   []uint64 // sorted distinct digests referenced by the key columns
	blocks []blockMeta
	data   []byte // concatenated compressed block payloads
	filter bloom

	// file and diskBytes are set once the segment has been persisted:
	// the content-addressed filename and its encoded size.
	file      string
	diskBytes int64

	// kb holds the block cache's entries for this segment, by block
	// (nil until the first is cached); dead marks a segment compaction
	// has replaced, which only older snapshots still read and the cache
	// no longer admits. Both are guarded by the store lock.
	kb   []*keyBlock
	dead bool
}

type decodedBlock struct {
	aIdx   []uint64
	bIdx   []uint64
	tomb   []byte // bitmap, (rows+7)/8 bytes
	vers   []int64
	valOff []int // rows+1 prefix offsets into vals
	vals   []byte
}

func (d *decodedBlock) isTomb(i int) bool { return d.tomb[i/8]&(1<<(i%8)) != 0 }

// rowAt materializes row i of the block against the segment dictionary.
func (s *segment) rowAt(d *decodedBlock, i int) row {
	r := row{
		key:  Key{A: Digest(s.dict[d.aIdx[i]]), B: Digest(s.dict[d.bIdx[i]])},
		ver:  int(d.vers[i]),
		tomb: d.isTomb(i),
	}
	if lo, hi := d.valOff[i], d.valOff[i+1]; hi > lo {
		r.val = d.vals[lo:hi]
	}
	return r
}

// indexBytes is the segment's bounded resident footprint: fence index,
// dictionary, and bloom filter. Block payloads are excluded — they are
// the storage medium, decoded on demand.
func (s *segment) indexBytes() int64 {
	const blockMetaBytes = 48 // 2 keys + 3 ints
	return int64(len(s.blocks))*blockMetaBytes + int64(len(s.dict))*8 + s.filter.sizeBytes()
}

// segBuilder assembles a segment from rows arriving in sorted key
// order. The dictionary must be fixed up front (it is the sorted union
// of every digest the rows reference), which is what allows streaming
// block emission during merges.
type segBuilder struct {
	id       uint64
	dict     []uint64
	dictBits uint
	filter   bloom

	blocks  []blockMeta
	data    []byte
	rows    int
	tombs   int
	modeled int64
	minKey  Key
	maxKey  Key

	// The current block's columns, reused across blocks, and the
	// previous row's dictionary indices.
	curA         []uint64
	curB         []uint64
	curTomb      []bool
	curVer       []int64
	curVLen      []int
	curVals      []byte
	scratch      []byte
	prevA, prevB uint64
	z            deflater
}

func newSegBuilder(id uint64, dict []uint64, estRows int) *segBuilder {
	n := min(estRows, blockRows)
	return &segBuilder{
		id:       id,
		dict:     dict,
		dictBits: bitWidth(uint64(len(dict) - 1)),
		filter:   newBloom(estRows),
		blocks:   make([]blockMeta, 0, (estRows+blockRows-1)/blockRows),
		data:     make([]byte, 0, estRows),
		curA:     make([]uint64, 0, n),
		curB:     make([]uint64, 0, n),
		curTomb:  make([]bool, 0, n),
		curVer:   make([]int64, 0, n),
		curVLen:  make([]int, 0, n),
	}
}

func dictIndex(dict []uint64, d Digest) uint64 {
	i, _ := slices.BinarySearch(dict, uint64(d))
	return uint64(i)
}

func (b *segBuilder) add(r row) {
	if b.rows == 0 || r.key.A != b.maxKey.A {
		if b.rows == 0 {
			b.minKey = r.key
		}
		b.prevA = dictIndex(b.dict, r.key.A)
		b.prevB = dictIndex(b.dict, r.key.B)
	} else {
		// Within a run of one A the B digests ascend: gallop on from the
		// previous row's instead of searching the whole dictionary.
		b.prevB += uint64(gallop(b.dict[b.prevB:], uint64(r.key.B)))
	}
	b.maxKey = r.key
	b.curA = append(b.curA, b.prevA)
	b.curB = append(b.curB, b.prevB)
	b.curTomb = append(b.curTomb, r.tomb)
	b.curVer = append(b.curVer, int64(r.ver))
	b.curVLen = append(b.curVLen, len(r.val))
	b.curVals = append(b.curVals, r.val...)
	b.filter.add(r.key)
	b.rows++
	if r.tomb {
		b.tombs++
	}
	b.modeled += EntryOverheadBytes + int64(len(r.val))
	if len(b.curA) == blockRows {
		b.flushBlock()
	}
}

func (b *segBuilder) flushBlock() {
	n := len(b.curA)
	if n == 0 {
		return
	}
	first := Key{A: Digest(b.dict[b.curA[0]]), B: Digest(b.dict[b.curB[0]])}
	last := Key{A: Digest(b.dict[b.curA[n-1]]), B: Digest(b.dict[b.curB[n-1]])}

	p := b.scratch[:0]
	p = putUvarint(p, uint64(n))
	// Column A: absolute first index, then non-negative deltas (rows are
	// key-sorted, so A indices never decrease within a block).
	p = putUvarint(p, b.curA[0])
	for i := 1; i < n; i++ {
		p = putUvarint(p, b.curA[i]-b.curA[i-1])
	}
	// Column B: bit-packed at the dictionary width.
	p = packBits(p, b.curB[:n], b.dictBits)
	// Tombstone bitmap.
	tb := len(p)
	p = append(p, make([]byte, (n+7)/8)...)
	for i, t := range b.curTomb {
		if t {
			p[tb+i/8] |= 1 << (i % 8)
		}
	}
	// Versions: zigzag delta varints (runs of one dataset version
	// collapse to zeros, which flate then erases).
	prev := int64(0)
	for i := 0; i < n; i++ {
		p = putVarint(p, b.curVer[i]-prev)
		prev = b.curVer[i]
	}
	// Value lengths, then the concatenated value bytes.
	for i := 0; i < n; i++ {
		p = putUvarint(p, uint64(b.curVLen[i]))
	}
	p = append(p, b.curVals...)
	b.scratch = p

	off := len(b.data)
	b.data = compressBlock(b.data, p, &b.z)
	b.blocks = append(b.blocks, blockMeta{
		first: first, last: last, rows: n, off: off, length: len(b.data) - off,
	})
	b.curA = b.curA[:0]
	b.curB = b.curB[:0]
	b.curTomb = b.curTomb[:0]
	b.curVer = b.curVer[:0]
	b.curVLen = b.curVLen[:0]
	b.curVals = b.curVals[:0]
}

func (b *segBuilder) finish() *segment {
	b.flushBlock()
	return &segment{
		id:      b.id,
		rows:    b.rows,
		tombs:   b.tombs,
		minKey:  b.minKey,
		maxKey:  b.maxKey,
		modeled: b.modeled,
		dict:    b.dict,
		blocks:  b.blocks,
		data:    b.data,
		filter:  b.filter,
	}
}

// blockPayload returns a reader over block i's decompressed payload,
// positioned after the row count, which it checks against the index.
func (s *segment) blockPayload(i int, z *inflater) (*byteReader, int, error) {
	m := s.blocks[i]
	if m.off < 0 || m.off+m.length > len(s.data) {
		return nil, 0, corrupt("block", "block %d spans [%d,%d) of %d data bytes", i, m.off, m.off+m.length, len(s.data))
	}
	payload, err := decompressBlock(s.data[m.off:m.off+m.length], z)
	if err != nil {
		return nil, 0, err
	}
	r := &byteReader{b: payload}
	nU, err := r.uvarint("block")
	if err != nil {
		return nil, 0, err
	}
	n := int(nU)
	if n != m.rows || n <= 0 || n > blockRows {
		return nil, 0, corrupt("block", "block %d declares %d rows, index says %d", i, n, m.rows)
	}
	return r, n, nil
}

// decodeBlock decodes every column of block i: what Get hits, block
// iterators and merges need. Probes decide membership from the key
// columns alone (decodeKeyCols). With a non-nil z and d (an iterator's)
// the block is decoded into d, whose tombstones and values live in z's
// buffer until z's next use.
func (s *segment) decodeBlock(i int, z *inflater, d *decodedBlock) (*decodedBlock, error) {
	r, n, err := s.blockPayload(i, z)
	if err != nil {
		return nil, err
	}
	if d == nil {
		d = &decodedBlock{}
	}
	d.aIdx = slices.Grow(d.aIdx[:0], n)[:n]
	d.bIdx = slices.Grow(d.bIdx[:0], n)[:n]
	d.vers = slices.Grow(d.vers[:0], n)[:n]
	d.valOff = slices.Grow(d.valOff[:0], n+1)[:n+1]
	// Column A.
	prev, err := r.uvarint("block")
	if err != nil {
		return nil, err
	}
	d.aIdx[0] = prev
	for k := 1; k < n; k++ {
		delta, err := r.uvarint("block")
		if err != nil {
			return nil, err
		}
		prev += delta
		d.aIdx[k] = prev
	}
	// Column B.
	width := bitWidth(uint64(len(s.dict) - 1))
	bBytes, err := r.bytes((n*int(width)+7)/8, "block")
	if err != nil {
		return nil, err
	}
	if err := unpackBits(bBytes, n, width, d.bIdx, "block"); err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		if d.aIdx[k] >= uint64(len(s.dict)) || d.bIdx[k] >= uint64(len(s.dict)) {
			return nil, corrupt("block", "row %d references dictionary index beyond %d", k, len(s.dict))
		}
	}
	// Tombstones.
	if d.tomb, err = r.bytes((n+7)/8, "block"); err != nil {
		return nil, err
	}
	// Versions.
	var vprev int64
	for k := 0; k < n; k++ {
		delta, err := r.varint("block")
		if err != nil {
			return nil, err
		}
		vprev += delta
		d.vers[k] = vprev
	}
	// Values.
	total := 0
	for k := 0; k < n; k++ {
		l, err := r.uvarint("block")
		if err != nil {
			return nil, err
		}
		if l > uint64(r.remaining()) {
			return nil, corrupt("block", "row %d value length %d exceeds remaining payload", k, l)
		}
		d.valOff[k] = total
		total += int(l)
	}
	d.valOff[n] = total
	if d.vals, err = r.bytes(total, "block"); err != nil {
		return nil, err
	}
	return d, nil
}

// findBlock returns the index of the only block that can contain k, or
// -1 when the fences exclude every block.
func (s *segment) findBlock(k Key) int {
	i := sort.Search(len(s.blocks), func(b int) bool { return !keyLess(s.blocks[b].last, k) })
	if i == len(s.blocks) || keyLess(k, s.blocks[i].first) {
		return -1
	}
	return i
}

// find locates k through the block cache's key columns: the block and
// row holding it and whether that row is a tombstone. Point probes keep
// the bloom filter in front — most are for absent keys (ingestion's
// duplicate checks), where it spares the dictionary and fence searches
// and, on a cold block, the inflate.
func (s *segment) find(k Key, c *blockCache) (blk, r int, tomb, ok bool) {
	if keyLess(k, s.minKey) || keyLess(s.maxKey, k) {
		return 0, 0, false, false
	}
	c.st.BloomProbes++
	if !s.filter.test(k) {
		c.st.BloomNegatives++
		return 0, 0, false, false
	}
	// The dictionary is a second cheap filter: a digest absent from it
	// cannot key any row.
	ai, okA := slices.BinarySearch(s.dict, uint64(k.A))
	bi, okB := slices.BinarySearch(s.dict, uint64(k.B))
	if blk = s.findBlock(k); okA && okB && blk >= 0 {
		if kb, err := c.keyCols(s, blk); err == nil {
			if _, r, ok = kb.seek(0, 0, uint32(ai), uint32(bi)); ok {
				return blk, r, kb.isTomb(r), true
			}
		}
	}
	c.st.BloomFalsePositives++
	return 0, 0, false, false
}

// get returns the row for k, if present. Only a hit that wants the
// row's version and value pays a full block decode; otherwise the row
// carries just the key and the tombstone flag.
func (s *segment) get(k Key, c *blockCache, wantRow bool) (row, bool) {
	blk, r, tomb, ok := s.find(k, c)
	if !ok || !wantRow {
		return row{key: k, tomb: tomb}, ok
	}
	c.st.BlockDecodes++
	d, err := s.decodeBlock(blk, nil, nil)
	if err != nil {
		return row{}, false
	}
	return s.rowAt(d, r), true
}

// segIter streams a segment's rows in key order, one block at a time,
// decoding each into the same buffers. A row's value is valid only
// until the next call.
type segIter struct {
	seg *segment
	blk int
	pos int
	dec decodedBlock
	z   inflater
	err error
}

func newSegIter(s *segment) *segIter { return &segIter{seg: s, blk: -1} }

func (it *segIter) next() (row, bool) {
	for it.err == nil {
		if it.pos < len(it.dec.aIdx) {
			r := it.seg.rowAt(&it.dec, it.pos)
			it.pos++
			return r, true
		}
		if it.blk++; it.blk >= len(it.seg.blocks) {
			break
		}
		_, it.err = it.seg.decodeBlock(it.blk, &it.z, &it.dec)
		it.pos = 0
	}
	return row{}, false
}

// encodeFile serializes the segment to its on-disk form.
func (s *segment) encodeFile() []byte {
	out := append([]byte(nil), segMagic...)

	// HEAD: id, rows, tombs, modeled, fences.
	h := putUvarint(nil, s.id)
	h = putUvarint(h, uint64(s.rows))
	h = putUvarint(h, uint64(s.tombs))
	h = putUvarint(h, uint64(s.modeled))
	h = appendKey(h, s.minKey)
	h = appendKey(h, s.maxKey)
	out = appendSection(out, "HEAD", h)

	// DICT: delta varints of the sorted digests, in a compressed block.
	d := putUvarint(nil, uint64(len(s.dict)))
	var prev uint64
	for i, v := range s.dict {
		if i == 0 {
			d = putUvarint(d, v)
		} else {
			d = putUvarint(d, v-prev)
		}
		prev = v
	}
	out = appendSection(out, "DICT", compressBlock(nil, d, &deflater{}))

	// BLOM: word count + little-endian words.
	bl := putUvarint(nil, uint64(len(s.filter.bits)))
	var w [8]byte
	for _, word := range s.filter.bits {
		binary.LittleEndian.PutUint64(w[:], word)
		bl = append(bl, w[:]...)
	}
	out = appendSection(out, "BLOM", bl)

	// BIDX: per-block fences and lengths; offsets are cumulative.
	bi := putUvarint(nil, uint64(len(s.blocks)))
	for _, m := range s.blocks {
		bi = appendKey(bi, m.first)
		bi = appendKey(bi, m.last)
		bi = putUvarint(bi, uint64(m.rows))
		bi = putUvarint(bi, uint64(m.length))
	}
	out = appendSection(out, "BIDX", bi)

	// DATA: the concatenated (already individually checksummed) blocks.
	out = appendSection(out, "DATA", s.data)
	return out
}

func appendKey(b []byte, k Key) []byte {
	var w [16]byte
	binary.LittleEndian.PutUint64(w[0:8], uint64(k.A))
	binary.LittleEndian.PutUint64(w[8:16], uint64(k.B))
	return append(b, w[:]...)
}

func readKey(r *byteReader, section string) (Key, error) {
	b, err := r.bytes(16, section)
	if err != nil {
		return Key{}, err
	}
	return Key{
		A: Digest(binary.LittleEndian.Uint64(b[0:8])),
		B: Digest(binary.LittleEndian.Uint64(b[8:16])),
	}, nil
}

// decodeSegmentFile parses and validates a segment file. Every section
// checksum is verified here; block payload checksums are verified
// lazily on first decode.
func decodeSegmentFile(raw []byte) (*segment, error) {
	r := &byteReader{b: raw}
	magic, err := r.bytes(len(segMagic), "magic")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(magic, segMagic) {
		return nil, corrupt("magic", "not a pairstore segment (magic %q)", magic)
	}
	s := &segment{}

	head, err := readSection(r, "HEAD")
	if err != nil {
		return nil, err
	}
	hr := &byteReader{b: head}
	if s.id, err = hr.uvarint("HEAD"); err != nil {
		return nil, err
	}
	rows, err := hr.uvarint("HEAD")
	if err != nil {
		return nil, err
	}
	tombs, err := hr.uvarint("HEAD")
	if err != nil {
		return nil, err
	}
	modeled, err := hr.uvarint("HEAD")
	if err != nil {
		return nil, err
	}
	if rows > 1<<40 || tombs > rows {
		return nil, corrupt("HEAD", "implausible rows=%d tombs=%d", rows, tombs)
	}
	s.rows, s.tombs, s.modeled = int(rows), int(tombs), int64(modeled)
	if s.minKey, err = readKey(hr, "HEAD"); err != nil {
		return nil, err
	}
	if s.maxKey, err = readKey(hr, "HEAD"); err != nil {
		return nil, err
	}

	dictSec, err := readSection(r, "DICT")
	if err != nil {
		return nil, err
	}
	dictRaw, err := decompressBlock(dictSec, nil)
	if err != nil {
		return nil, err
	}
	dr := &byteReader{b: dictRaw}
	dn, err := dr.uvarint("DICT")
	if err != nil {
		return nil, err
	}
	if dn > uint64(len(dictRaw))+1 || dn > 1<<32 {
		return nil, corrupt("DICT", "implausible dictionary size %d", dn)
	}
	s.dict = make([]uint64, dn)
	var prev uint64
	for i := range s.dict {
		v, err := dr.uvarint("DICT")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			prev = v
		} else {
			next := prev + v
			if v == 0 || next < prev {
				return nil, corrupt("DICT", "dictionary not strictly increasing at %d", i)
			}
			prev = next
		}
		s.dict[i] = prev
	}
	if s.rows > 0 && len(s.dict) == 0 {
		return nil, corrupt("DICT", "%d rows with an empty dictionary", s.rows)
	}

	blom, err := readSection(r, "BLOM")
	if err != nil {
		return nil, err
	}
	br := &byteReader{b: blom}
	words, err := br.uvarint("BLOM")
	if err != nil {
		return nil, err
	}
	if words > maxBloomWords {
		return nil, corrupt("BLOM", "declared %d words, a filter holds at most %d", words, maxBloomWords)
	}
	if words > uint64(br.remaining()/8)+1 {
		return nil, corrupt("BLOM", "declared %d words, payload holds %d", words, br.remaining()/8)
	}
	s.filter.bits = make([]uint64, words)
	for i := range s.filter.bits {
		wb, err := br.bytes(8, "BLOM")
		if err != nil {
			return nil, err
		}
		s.filter.bits[i] = binary.LittleEndian.Uint64(wb)
	}

	bidx, err := readSection(r, "BIDX")
	if err != nil {
		return nil, err
	}
	ir := &byteReader{b: bidx}
	nBlocks, err := ir.uvarint("BIDX")
	if err != nil {
		return nil, err
	}
	if nBlocks > uint64(len(raw)) {
		return nil, corrupt("BIDX", "implausible block count %d", nBlocks)
	}
	s.blocks = make([]blockMeta, nBlocks)
	off, totalRows := 0, 0
	for i := range s.blocks {
		m := &s.blocks[i]
		if m.first, err = readKey(ir, "BIDX"); err != nil {
			return nil, err
		}
		if m.last, err = readKey(ir, "BIDX"); err != nil {
			return nil, err
		}
		rws, err := ir.uvarint("BIDX")
		if err != nil {
			return nil, err
		}
		ln, err := ir.uvarint("BIDX")
		if err != nil {
			return nil, err
		}
		if rws == 0 || rws > blockRows || ln > uint64(len(raw)) {
			return nil, corrupt("BIDX", "block %d: implausible rows=%d len=%d", i, rws, ln)
		}
		m.rows, m.off, m.length = int(rws), off, int(ln)
		off += int(ln)
		totalRows += int(rws)
	}
	if totalRows != s.rows {
		return nil, corrupt("BIDX", "blocks hold %d rows, header declares %d", totalRows, s.rows)
	}

	if s.data, err = readSection(r, "DATA"); err != nil {
		return nil, err
	}
	if off != len(s.data) {
		return nil, corrupt("DATA", "block index spans %d bytes, data section holds %d", off, len(s.data))
	}
	s.diskBytes = int64(len(raw))
	return s, nil
}
