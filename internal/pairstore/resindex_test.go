package pairstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rowAnswers is what rows say of each key they hold: live or tombstone.
func rowAnswers(rows []row) map[Key]bool {
	live := make(map[Key]bool, len(rows))
	for _, r := range rows {
		live[r.key] = !r.tomb
	}
	return live
}

// checkLookup holds seg's residency index to want on k: a live record,
// a tombstone, or no record at all.
func checkLookup(t *testing.T, seg *segment, c *blockCache, want map[Key]bool, k Key) {
	t.Helper()
	wantLive, wantOK := want[k]
	if live, ok := c.index(seg).lookup(seg.dict, k, c.calls); live != wantLive || ok != wantOK {
		t.Fatalf("lookup(%x) = live %v, found %v; rows say live %v, found %v", k, live, ok, wantLive, wantOK)
	}
}

// TestIndexDenseAndSparseRows: one segment over a 100-digest dictionary
// (7-bit indices) whose A rows fall on both sides of the rule count × 7
// ≥ 100: 99 and 15 live B indices are bitmaps, 14 and 1 are packed, and
// the tombstones form a packed row and a bitmap of their own. Every
// digest past d[5] heads no row; d[0]'s row names it as a B. Every pair
// over the dictionary, and digests outside it, read as the rows say.
func TestIndexDenseAndSparseRows(t *testing.T) {
	var d [100]Digest
	for i := range d {
		d[i] = Digest(1000 + 7*i)
	}
	var rows []row
	span := func(a, lo, hi int, tomb func(b int) bool) {
		for b := lo; b < hi; b++ {
			rows = append(rows, row{key: Key{A: d[a], B: d[b]}, tomb: tomb(b)})
		}
	}
	never := func(int) bool { return false }
	span(0, 1, 100, never)                               // 99 live: bitmap
	span(1, 2, 17, never)                                // 15 live: bitmap, 105 bits
	span(2, 3, 17, never)                                // 14 live: packed, 98 bits
	span(3, 50, 51, never)                               // 1 live: packed
	span(4, 5, 21, func(b int) bool { return b%2 == 1 }) // 8 live, 8 tombstones: packed
	span(5, 6, 31, func(int) bool { return true })       // 25 tombstones: bitmap
	want := rowAnswers(rows)
	seg := buildSegment(1, rows)
	if len(seg.dict) != 100 {
		t.Fatalf("dictionary of %d digests, want 100", len(seg.dict))
	}
	c := newTestCache()
	x := c.index(seg)
	for _, r := range []struct {
		set  *rowSet
		a    int
		bits uint64
		what string
	}{
		{&x.live, 0, 105, "99 live rows"},
		{&x.live, 1, 105, "15 live rows"},
		{&x.live, 2, 14 * 7, "14 live rows"},
		{&x.live, 3, 7, "1 live row"},
		{&x.live, 4, 8 * 7, "8 live rows"},
		{&x.tomb, 4, 8 * 7, "8 tombstones"},
		{&x.tomb, 5, 105, "25 tombstones"},
		{&x.live, 5, 0, "no live rows"},
		{&x.live, 6, 0, "no rows"},
		{&x.live, 99, 0, "no rows"},
	} {
		if got := uint64(r.set.off[r.a+1]-r.set.off[r.a]) * uint64(x.width); got != r.bits {
			t.Errorf("A index %d (%s): %d bits, want %d", r.a, r.what, got, r.bits)
		}
	}
	for _, a := range d {
		for _, b := range d {
			checkLookup(t, seg, c, want, Key{A: a, B: b})
		}
		checkLookup(t, seg, c, want, Key{A: a, B: 5})
		checkLookup(t, seg, c, want, Key{A: 1001, B: a})
	}
	if got := c.st.BlockDecodes; got != uint64(len(seg.blocks)) {
		t.Fatalf("index build inflated %d blocks of %d", got, len(seg.blocks))
	}
}

// TestIndexMatchesRows: on random segments from one row to four blocks,
// dictionaries from 2 to 4n digests and a third of the rows tombstones,
// the index answers every row's key as the row says, and random pairs
// over the dictionary as the rows say.
func TestIndexMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 2, 300, blockRows + 1, 3*blockRows + 17} {
		for _, universe := range []int{3, 70, 4 * n} {
			if universe*universe < n {
				continue
			}
			rows := randRows(int64(n+universe), n, universe)
			want := rowAnswers(rows)
			seg := buildSegment(1, rows)
			c := newTestCache()
			for _, r := range rows {
				checkLookup(t, seg, c, want, r.key)
			}
			for i := 0; i < 2000; i++ {
				k := Key{A: Digest(seg.dict[rng.Intn(len(seg.dict))]), B: Digest(seg.dict[rng.Intn(len(seg.dict))])}
				checkLookup(t, seg, c, want, k)
			}
		}
	}
}

// TestIndexSkipsCorruptBlock: the keys of a block that fails its
// checksum read absent from the index, as they do to point probes, and
// the keys of every other block are still answered.
func TestIndexSkipsCorruptBlock(t *testing.T) {
	rows := randRows(9, 3*blockRows, 200)
	seg := buildSegment(1, rows) // sorts rows: row k is in block k / blockRows
	if len(seg.blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(seg.blocks))
	}
	m := seg.blocks[1]
	seg.data[m.off+m.length-1] ^= 1
	if _, err := seg.decodeKeyCols(1, nil); err == nil {
		t.Fatal("the damaged block still decodes")
	}
	want := rowAnswers(rows)
	for _, r := range rows[blockRows : 2*blockRows] {
		delete(want, r.key)
	}
	c := newTestCache()
	for _, r := range rows {
		checkLookup(t, seg, c, want, r.key)
	}
}

// TestIndexTombstoneShadowsOlderRow: a tombstone sealed into a newer
// segment hides the live row an older segment holds, from the snapshots
// taken after it, and not from one taken before.
func TestIndexTombstoneShadowsOlderRow(t *testing.T) {
	s := New()
	gone, kept, later := Key{A: 1, B: 2}, Key{A: 1, B: 3}, Key{A: 4, B: 5}
	s.Put(Entry{Key: gone})
	s.Put(Entry{Key: kept})
	s.Seal()
	before := s.Snapshot()
	s.retract(gone)
	s.Put(Entry{Key: later})
	s.Seal()
	after := s.Snapshot()
	keys := []Key{gone, kept, later}
	out := make([]bool, len(keys))
	for _, v := range []struct {
		name string
		sn   *Snapshot
		want [3]bool
	}{{"after", after, [3]bool{false, true, true}}, {"before", before, [3]bool{true, true, false}}} {
		v.sn.HasMany(keys, out)
		if [3]bool(out) != v.want {
			t.Fatalf("snapshot %s the retraction: HasMany = %v, want %v", v.name, out, v.want)
		}
	}
	if seg := s.newest[0]; seg.tombs != 1 || seg.res == nil || seg.res.tomb.off == nil {
		t.Fatalf("newest segment: %d tombstones, index built %v", seg.tombs, seg.res != nil)
	}
}

// TestIndexNoLargerThanKeyColumns: on every segment of deltaStore the
// index takes no more memory than the decoded key columns the block
// cache would hold for the same blocks.
func TestIndexNoLargerThanKeyColumns(t *testing.T) {
	s, _ := deltaStore(t)
	for _, seg := range s.newest {
		var cols int64
		for blk := range seg.blocks {
			kb, err := seg.decodeKeyCols(blk, nil)
			if err != nil {
				t.Fatal(err)
			}
			cols += kb.bytes()
		}
		idx := s.cache.index(seg).sizeBytes()
		t.Logf("segment %d: %d rows, %d digests: index %d B, key columns %d B", seg.id, seg.rows, len(seg.dict), idx, cols)
		if idx > cols {
			t.Errorf("segment %d (%d rows, %d digests): index %d B, key columns %d B", seg.id, seg.rows, len(seg.dict), idx, cols)
		}
	}
}

// TestIndexBoundDropsIdle: three segments over disjoint items, each
// holding one dataset's pairs, under a one-byte index bound. A plan
// indexes only the segment whose dictionary holds its digests; a plan's
// build drops the indexes the plan has not read and keeps those it has,
// whatever the bound; and the segments
// compaction retires leave the bound and keep their indexes for the
// snapshot that still reads them.
func TestIndexBoundDropsIdle(t *testing.T) {
	s := New()
	const items = 30
	var sets [3][]Key
	for d := range sets {
		digest := DigestFunc("bound", fmt.Sprint("dataset", d), 1)
		for j := 1; j < items; j++ {
			for i := 0; i < j; i++ {
				k := Key{A: digest(i), B: digest(j)}
				sets[d] = append(sets[d], k)
				s.Put(Entry{Key: k})
			}
		}
		s.Seal()
	}
	s.cache.indexLimit = 1
	snap := s.Snapshot()
	var segs [3]*segment // by dataset
	for d, keys := range sets {
		for _, seg := range snap.segs {
			if _, ok := slices.BinarySearch(seg.dict, uint64(keys[0].A)); ok {
				segs[d] = seg
			}
		}
		if segs[d] == nil || len(snap.segs) != 3 {
			t.Fatalf("dataset %d: no segment of %d holds it", d, len(snap.segs))
		}
	}
	plan := func(ds ...int) {
		t.Helper()
		var keys []Key
		for _, d := range ds {
			keys = append(keys, sets[d]...)
		}
		out := make([]bool, len(keys))
		snap.HasMany(keys, out)
		for i, ok := range out {
			if !ok {
				t.Fatalf("plan of datasets %v: key %d reads absent", ds, i)
			}
		}
	}
	indexed := func(want ...int) {
		t.Helper()
		var got []int
		bytes := int64(0)
		for d, seg := range segs {
			if seg.res != nil {
				got = append(got, d)
				bytes += seg.res.sizeBytes()
			}
		}
		if !slices.Equal(got, want) || s.cache.indexBytes != bytes {
			t.Fatalf("datasets %v indexed (%d B, books say %d B), want %v", got, bytes, s.cache.indexBytes, want)
		}
	}
	plan(0)
	indexed(0)
	plan(1)
	indexed(1)
	plan(1, 2)
	indexed(1, 2)
	plan(0, 2)
	indexed(0, 2)

	s.Compact()
	if len(s.cache.indexed) != 0 || s.cache.indexBytes != 0 {
		t.Fatalf("after compaction the bound holds %d indexes, %d B", len(s.cache.indexed), s.cache.indexBytes)
	}
	decodes := s.Stats().BlockDecodes
	plan(0, 1, 2)
	for d, seg := range segs {
		if seg.res == nil || s.cache.indexBytes != 0 {
			t.Fatalf("retired segment of dataset %d: index %v, bound holds %d B", d, seg.res != nil, s.cache.indexBytes)
		}
	}
	if d := s.Stats().BlockDecodes - decodes; d != uint64(len(segs[1].blocks)) {
		t.Fatalf("a plan of the retired segments inflated %d blocks, want dataset 1's %d", d, len(segs[1].blocks))
	}
}

// TestIndexAnswersPointProbes: once a plan has indexed the segments,
// Gets take membership from the indexes — versions and values read as
// put, a retracted key and absent keys read absent — and leave the
// block cache empty, one full decode per record found.
func TestIndexAnswersPointProbes(t *testing.T) {
	s := New()
	s.SetAutoSealThreshold(1 << 20)
	digest := DigestFunc("points", "index", 1)
	var keys []Key
	for j := 1; j < 120; j++ {
		for i := 0; i < j; i++ {
			k := Key{A: digest(i), B: digest(j)}
			keys = append(keys, k)
			s.Put(Entry{Key: k, Version: j, Value: []byte(fmt.Sprint(i, j))})
		}
		if j%40 == 0 {
			s.Seal()
		}
	}
	gone := keys[len(keys)/2]
	s.retract(gone)
	s.Seal()
	out := make([]bool, len(keys))
	s.Snapshot().HasMany(keys, out)
	st := s.Stats()
	if st.Segments < 3 || st.BlockCacheBytes != 0 {
		t.Fatalf("%d segments, %d cached bytes after the plan", st.Segments, st.BlockCacheBytes)
	}
	hits := 0
	for n, k := range keys {
		if n%7 != 0 && k != gone {
			continue
		}
		hits++
		e, ok := s.Get(k)
		if k == gone {
			if ok {
				t.Fatal("the retracted key reads live")
			}
			continue
		}
		var i, j int
		fmt.Sscan(string(e.Value), &i, &j)
		if !ok || k != (Key{A: digest(i), B: digest(j)}) || e.Version != j {
			t.Fatalf("Get(%x) = %v, %v", k, e, ok)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok := s.Get(Key{A: digest(i % 120), B: digest(200 + i)}); ok {
			t.Fatal("an absent key reads live")
		}
	}
	after := s.Stats()
	if after.BlockCacheBytes != 0 || after.BlockCacheHits != 0 {
		t.Fatalf("Gets of indexed segments cached %d bytes, %d hits", after.BlockCacheBytes, after.BlockCacheHits)
	}
	if d := after.BlockDecodes - st.BlockDecodes; d != uint64(hits) {
		t.Fatalf("%d hits, the retracted key's among them, decoded %d blocks, want one each", hits, d)
	}
}
