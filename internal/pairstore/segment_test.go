package pairstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildSegment sorts rows by key and assembles a segment from them,
// the way a seal does from its log. Rows must reference each key at most
// once.
func buildSegment(id uint64, rows []row) *segment {
	slices.SortFunc(rows, func(a, b row) int { return keyCmp(a.key, b.key) })
	var dict []uint64
	for _, r := range rows {
		dict = append(dict, uint64(r.key.A), uint64(r.key.B))
	}
	slices.Sort(dict)
	b := newSegBuilder(id, slices.Compact(dict), len(rows))
	for _, r := range rows {
		b.add(r)
	}
	return b.finish()
}

// randRows builds n distinct-key rows over a digest universe of width
// universe, deterministically from seed.
func randRows(seed int64, n, universe int) []row {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Key]bool, n)
	rows := make([]row, 0, n)
	for len(rows) < n {
		k := Key{
			A: Digest(rng.Intn(universe)*7919 + 13),
			B: Digest(rng.Intn(universe)*104729 + 17),
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		r := row{key: k, ver: rng.Intn(50)}
		switch rng.Intn(3) {
		case 0:
			r.val = []byte(fmt.Sprintf(`{"d":%d}`, rng.Intn(1000)))
		case 1:
			r.tomb = true
		}
		rows = append(rows, r)
	}
	return rows
}

// newTestCache is a block cache outside any store, for probing bare
// segments.
func newTestCache() *blockCache {
	c := &blockCache{}
	c.init(&Stats{})
	return c
}

func sameRow(a, b row) bool {
	return a.key == b.key && a.ver == b.ver && a.tomb == b.tomb && string(a.val) == string(b.val)
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, blockRows, blockRows + 1, 3*blockRows + 17} {
		rows := randRows(int64(n), n, 4*n+10)
		seg := buildSegment(7, rows)
		raw := seg.encodeFile()
		dec, err := decodeSegmentFile(raw)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if dec.rows != n || dec.id != 7 || dec.minKey != seg.minKey || dec.maxKey != seg.maxKey {
			t.Fatalf("n=%d: header mismatch: %+v", n, dec)
		}
		it, want := newSegIter(dec), newSegIter(seg)
		for i := 0; i < n; i++ {
			got, ok1 := it.next()
			exp, ok2 := want.next()
			if !ok1 || !ok2 || !sameRow(got, exp) {
				t.Fatalf("n=%d row %d: got %+v ok=%v want %+v ok=%v", n, i, got, ok1, exp, ok2)
			}
		}
		if _, ok := it.next(); ok {
			t.Fatalf("n=%d: iterator overruns", n)
		}
		// Point probes agree with the iterator.
		c := newTestCache()
		for _, r := range rows[:min(64, n)] {
			got, ok := dec.get(r.key, c, true)
			if !ok || !sameRow(got, r) {
				t.Fatalf("n=%d: get(%v) = %+v ok=%v, want %+v", n, r.key, got, ok, r)
			}
		}
		if _, ok := dec.get(Key{A: 1<<63 + 11, B: 3}, c, true); ok {
			t.Fatalf("n=%d: get of absent key succeeded", n)
		}
	}
}

// TestSegmentCorruption checks the decoder's contract: any truncation
// or bit flip must surface as a *CorruptError, never a panic or a
// silently wrong segment.
func TestSegmentCorruption(t *testing.T) {
	rows := randRows(99, 2*blockRows+100, 5000)
	raw := buildSegment(1, rows).encodeFile()

	for _, cut := range []int{0, 4, len(segMagic), len(segMagic) + 7, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := decodeSegmentFile(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("truncation at %d: error %T is not *CorruptError: %v", cut, err, err)
			}
		}
	}
	step := len(raw)/97 + 1
	for pos := 0; pos < len(raw); pos += step {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := decodeSegmentFile(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", pos)
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("bit flip at %d: error %T is not *CorruptError: %v", pos, err, err)
			}
		}
	}
}

// TestSegmentCompression checks the columnar layout actually earns its
// keep: far below the 16 raw key bytes per pair.
func TestSegmentCompression(t *testing.T) {
	const items = 500 // all-pairs over 500 items = 124750 pairs
	digest := DigestFunc("corpus", "forensics", 1)
	rows := make([]row, 0, items*(items-1)/2)
	for i := 0; i < items; i++ {
		for j := i + 1; j < items; j++ {
			rows = append(rows, row{key: PairKey(digest, i, j), ver: items})
		}
	}
	seg := buildSegment(0, rows)
	raw := seg.encodeFile()
	bpp := float64(len(raw)) / float64(len(rows))
	if bpp > 8 {
		t.Fatalf("all-pairs segment costs %.2f bytes/pair, want <= 8", bpp)
	}
	// The resident index (fences + dictionary + bloom) must stay around
	// the bloom's ~1.25 bytes/pair — an order of magnitude under raw
	// 16-byte keys and ~40x under a resident per-pair map.
	if idx := seg.indexBytes(); idx > 2*int64(len(rows)) {
		t.Fatalf("resident index %d bytes for %d rows — not bounded", idx, len(rows))
	}
}

func TestStoreDeleteAndRevive(t *testing.T) {
	s := New()
	k := Key{A: 1, B: 2}
	if !s.Put(Entry{Key: k, Value: json.RawMessage(`1`)}) {
		t.Fatal("put rejected")
	}
	if !s.Delete(k) {
		t.Fatal("delete of live key rejected")
	}
	if s.Delete(k) {
		t.Fatal("double delete accepted")
	}
	if s.Has(k) || s.Len() != 0 {
		t.Fatal("deleted key still visible")
	}
	if !s.Put(Entry{Key: k, Value: json.RawMessage(`2`)}) {
		t.Fatal("revive put rejected")
	}
	if e, ok := s.Get(k); !ok || string(e.Value) != `2` {
		t.Fatalf("revived value = %+v ok=%v", e, ok)
	}
	// The sequence survives seals between each step.
	s2 := New()
	s2.Put(Entry{Key: k})
	s2.Seal()
	s2.Delete(k)
	s2.Seal()
	if s2.Has(k) || s2.Len() != 0 {
		t.Fatal("sealed tombstone does not shadow sealed entry")
	}
	s2.Put(Entry{Key: k, Version: 9})
	s2.Seal()
	if e, ok := s2.Get(k); !ok || e.Version != 9 {
		t.Fatalf("revive across seals = %+v ok=%v", e, ok)
	}
}

func TestCompactEdgeCases(t *testing.T) {
	t.Run("empty store", func(t *testing.T) {
		s := New()
		if dropped := s.Compact(); dropped != 0 {
			t.Fatalf("empty compact dropped %d", dropped)
		}
		st := s.Stats()
		if st.Segments != 1 || st.Compactions != 1 {
			t.Fatalf("stats after empty compact: %+v", st)
		}
	})
	t.Run("single segment no-op", func(t *testing.T) {
		s := New()
		for i := 0; i < 10; i++ {
			s.Put(Entry{Key: Key{A: Digest(i), B: Digest(i + 1)}})
		}
		s.Seal()
		before := s.segmentsNewestFirst()
		if len(before) != 1 {
			t.Fatalf("expected 1 segment, have %d", len(before))
		}
		s.Compact()
		after := s.segmentsNewestFirst()
		if len(after) != 1 || after[0] != before[0] {
			t.Fatal("tombstone-free single-segment compaction rewrote the segment")
		}
	})
	t.Run("tombstone-only segment eliminated", func(t *testing.T) {
		s := New()
		for i := 0; i < 8; i++ {
			s.Put(Entry{Key: Key{A: Digest(i), B: 1}})
		}
		s.Seal()
		for i := 0; i < 8; i++ {
			s.Delete(Key{A: Digest(i), B: 1})
		}
		s.Seal() // a segment of pure tombstones
		if got := len(s.segmentsNewestFirst()); got != 2 {
			t.Fatalf("expected 2 segments before compact, have %d", got)
		}
		s.Compact()
		if got := len(s.segmentsNewestFirst()); got != 0 {
			t.Fatalf("tombstone-only store left %d segments after compact", got)
		}
		st := s.Stats()
		if st.Entries != 0 || st.LogEntries != 0 || st.Tombstones != 0 {
			t.Fatalf("stats after full elimination: %+v", st)
		}
	})
	t.Run("tiered merge preserves newest", func(t *testing.T) {
		s := New()
		k := Key{A: 42, B: 43}
		s.Put(Entry{Key: k, Version: 1})
		s.Seal()
		s.Delete(k)
		s.Seal()
		s.Put(Entry{Key: k, Version: 3})
		s.Seal()
		s.Put(Entry{Key: Key{A: 9, B: 9}})
		s.Seal() // 4th seal triggers the fanout-4 tier merge
		st := s.Stats()
		if st.Levels != 1 || len(s.levels[0]) != 0 || len(s.levels[1]) != 1 {
			t.Fatalf("expected a single L1 segment, levels=%v", st.Levels)
		}
		if e, ok := s.Get(k); !ok || e.Version != 3 {
			t.Fatalf("after tier merge Get = %+v ok=%v, want version 3", e, ok)
		}
		if s.levels[1][0].tombs != 0 {
			t.Fatal("bottom-level merge kept a tombstone")
		}
	})
}

func TestAutoSealBoundsMemtable(t *testing.T) {
	s := New()
	s.SetAutoSealThreshold(64)
	digest := DigestFunc("corpus", "app", 3)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Put(Entry{Key: PairKey(digest, i, i+1), Version: i})
	}
	st := s.Stats()
	if st.Seals == 0 {
		t.Fatal("auto-seal never fired")
	}
	if len(s.mem.entries) >= 64 {
		t.Fatalf("memtable holds %d entries, threshold 64", len(s.mem.entries))
	}
	if st.Entries != n {
		t.Fatalf("entries = %d, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		if !s.Has(PairKey(digest, i, i+1)) {
			t.Fatalf("key %d lost across auto-seals", i)
		}
	}
	if st.IndexResidentBytes == 0 || st.Levels == 0 {
		t.Fatalf("sealed store reports no resident index / levels: %+v", st)
	}
}

func TestSnapshotImmuneToSealAndCompact(t *testing.T) {
	s := New()
	digest := DigestFunc("corpus", "app", 5)
	for i := 0; i < 100; i++ {
		s.Put(Entry{Key: PairKey(digest, i, i+1)})
	}
	snap := s.Snapshot()
	s.Seal()
	for i := 100; i < 200; i++ {
		s.Put(Entry{Key: PairKey(digest, i, i+1)})
	}
	s.Compact()
	s.Delete(PairKey(digest, 0, 1))

	if snap.Len() != 100 {
		t.Fatalf("snapshot len = %d, want 100", snap.Len())
	}
	if !snap.Has(PairKey(digest, 0, 1)) {
		t.Fatal("snapshot lost a pre-snapshot key (or saw a later delete)")
	}
	if snap.Has(PairKey(digest, 150, 151)) {
		t.Fatal("snapshot sees a post-snapshot key")
	}
	keys := make([]Key, 200)
	out := make([]bool, 200)
	for i := range keys {
		keys[i] = PairKey(digest, i, i+1)
	}
	snap.HasMany(keys, out)
	for i, got := range out {
		if got != (i < 100) {
			t.Fatalf("HasMany[%d] = %v", i, got)
		}
	}
}

// TestHasManyAgreesWithHas cross-checks the sorted merge-walk against
// per-key probes over a store with several sealed levels.
func TestHasManyAgreesWithHas(t *testing.T) {
	s := New()
	s.SetAutoSealThreshold(128)
	rng := rand.New(rand.NewSource(11))
	present := make([]Key, 0, 1500)
	for i := 0; i < 1500; i++ {
		k := Key{A: Digest(rng.Uint64()), B: Digest(rng.Uint64())}
		s.Put(Entry{Key: k})
		present = append(present, k)
	}
	snap := s.Snapshot()
	keys := make([]Key, 0, 3000)
	want := make([]bool, 0, 3000)
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			keys = append(keys, present[rng.Intn(len(present))])
			want = append(want, true)
		} else {
			keys = append(keys, Key{A: Digest(rng.Uint64()), B: Digest(rng.Uint64())})
			want = append(want, false)
		}
	}
	out := make([]bool, len(keys))
	snap.HasMany(keys, out)
	for i := range keys {
		if out[i] != want[i] {
			t.Fatalf("HasMany[%d] = %v, want %v", i, out[i], want[i])
		}
		if snap.Has(keys[i]) != want[i] {
			t.Fatalf("Has(%v) disagrees", keys[i])
		}
	}
	st := s.Stats()
	if st.BloomProbes == 0 || st.BloomNegatives == 0 {
		t.Fatalf("bloom filter never consulted: %+v", st)
	}
}

// TestBloomSizingBelowWrap: a filter's bit count must stay below 2³², the
// modulus add and test reduce their 32-bit hashes by; at exactly 2²⁶
// words it was 0 and the first add panicked. Checked through bloomWords,
// without allocating the 512 MB a filter at the limit takes.
func TestBloomSizingBelowWrap(t *testing.T) {
	if maxBloomWords*64 >= 1<<32 {
		t.Fatalf("%d words hold %d bits, not below 2³²", maxBloomWords, maxBloomWords*64)
	}
	for _, c := range []struct{ n, words int }{
		{0, 0}, {1, 1}, {1_000_000, 156_250}, // below the clamp nothing moves
		{429_496_720, maxBloomWords}, // the last unclamped size
		{429_496_725, maxBloomWords}, // would be exactly 2²⁶ words: m == 0
		{1 << 30, maxBloomWords}, {1 << 40, maxBloomWords},
	} {
		if got := bloomWords(c.n); got != c.words {
			t.Errorf("bloomWords(%d) = %d, want %d", c.n, got, c.words)
		}
	}
}

// TestDecodeRejectsOversizedBloom: a BLOM section declaring more words
// than a filter may hold is a *CorruptError, before any is read.
func TestDecodeRejectsOversizedBloom(t *testing.T) {
	raw := buildSegment(1, randRows(5, 100, 50)).encodeFile()
	r := &byteReader{b: raw, off: len(segMagic)}
	for _, tag := range []string{"HEAD", "DICT"} {
		if _, err := readSection(r, tag); err != nil {
			t.Fatal(err)
		}
	}
	start := r.off
	if _, err := readSection(r, "BLOM"); err != nil {
		t.Fatal(err)
	}
	blom := append(putUvarint(nil, 1<<26), make([]byte, 64)...)
	mut := append(appendSection(append([]byte(nil), raw[:start]...), "BLOM", blom), raw[r.off:]...)
	_, err := decodeSegmentFile(mut)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "BLOM" || !strings.Contains(ce.Reason, "at most") {
		t.Fatalf("decoding a BLOM section of 2²⁶ words: %v", err)
	}
}

// TestSegIterStopsAtCorruptBlock: a block whose frame checks out but whose
// columns do not decode ends the iteration — the iterator's reused
// buffers, already sized for the block, are never served as rows.
func TestSegIterStopsAtCorruptBlock(t *testing.T) {
	seg := buildSegment(1, randRows(3, 100, 50))
	raw, err := decompressBlock(seg.data, nil)
	if err != nil {
		t.Fatal(err)
	}
	mut := *seg
	mut.data = compressBlock(nil, raw[:len(raw)/4], &deflater{})
	mut.blocks = []blockMeta{seg.blocks[0]}
	mut.blocks[0].length = len(mut.data)
	it := newSegIter(&mut)
	if r, ok := it.next(); ok || it.err == nil {
		t.Fatalf("iterator over a corrupt block returned %+v, %v (err %v)", r, ok, it.err)
	}
	if _, ok := it.next(); ok {
		t.Fatal("iterator resumed after a corrupt block")
	}
}
