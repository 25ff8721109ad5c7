package pairstore

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"rocket/internal/testutil"
)

// deltaStore builds the benchmark's store_delta shape at a twenty-fifth
// of its pairs: five dataset versions ingested by Put and Merge in
// turn, auto-sealing at 6 000 entries so tier merges run during
// ingestion and several levels stay live. Returns the store and the
// per-item digests.
func deltaStore(t testing.TB) (*Store, []Digest) {
	t.Helper()
	digest := DigestFunc("delta", "forensics", 1)
	dg := make([]Digest, 440)
	for i := range dg {
		dg[i] = digest(i)
	}
	s := New()
	s.SetAutoSealThreshold(6000)
	prev := 0
	for v, n := range []int{240, 280, 320, 360, 400} {
		b := NewBatch()
		for j := prev; j < n; j++ {
			for i := 0; i < j; i++ {
				b.Add(Entry{Key: Key{A: dg[i], B: dg[j]}, Version: n})
			}
		}
		if v%2 == 0 {
			for _, c := range b.chunks {
				for _, e := range c {
					s.Put(e)
				}
			}
		} else if got := s.Merge(b); got != b.Len() {
			t.Fatalf("version %d: merged %d of %d", n, got, b.Len())
		}
		s.Seal()
		prev = n
	}
	if st := s.Stats(); st.Levels < 2 || st.Blocks < 2*st.Segments {
		t.Fatalf("store shape lost its point: %d levels, %d blocks in %d segments", st.Levels, st.Blocks, st.Segments)
	}
	return s, dg
}

// planBase resolves every pair of the first n items against snap the way
// core.buildStorePlan does — i-major, 4 096 keys per HasMany — and
// returns the residency bitmap. check, when non-nil, runs after every
// chunk.
func planBase(snap *Snapshot, dg []Digest, n int, check func()) []byte {
	const chunk = 4096
	var bitmap []byte
	keys := make([]Key, 0, chunk)
	out := make([]bool, chunk)
	flush := func() {
		snap.HasMany(keys, out)
		for k := range keys {
			bit := byte(0)
			if out[k] {
				bit = 1
			}
			bitmap = append(bitmap, bit)
		}
		keys = keys[:0]
		if check != nil {
			check()
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			keys = append(keys, Key{A: dg[i], B: dg[j]})
			if len(keys) == chunk {
				flush()
			}
		}
	}
	flush()
	return bitmap
}

// TestPlanDecodesEachBlockOnce is the count behind the planning
// speed-up: a plan inflates each block at most once, building the
// segments' residency indexes, however often its i-major chunks come
// back to a segment, and a second plan inflates nothing.
func TestPlanDecodesEachBlockOnce(t *testing.T) {
	s, dg := deltaStore(t)
	snap := s.Snapshot()
	before := s.Stats()
	first := planBase(snap, dg, 400, nil)
	if bytes.Contains(first, []byte{0}) || len(first) != 400*399/2 {
		t.Fatalf("plan found %d of %d base pairs resident", bytes.Count(first, []byte{1}), 400*399/2)
	}
	mid := s.Stats()
	if d := mid.BlockDecodes - before.BlockDecodes; d == 0 || d > uint64(mid.Blocks) {
		t.Fatalf("first plan decoded %d blocks of %d", d, mid.Blocks)
	}
	// The 440-item region adds absent keys: every answer must still be exact.
	second := planBase(snap, dg, 440, nil)
	for i, k := 0, 0; i < 440; i++ {
		for j := i + 1; j < 440; j, k = j+1, k+1 {
			if want := j < 400; (second[k] == 1) != want {
				t.Fatalf("pair (%d,%d) planned resident=%v", i, j, !want)
			}
		}
	}
	if after := s.Stats(); after.BlockDecodes != mid.BlockDecodes {
		t.Fatalf("second plan decoded %d more blocks", after.BlockDecodes-mid.BlockDecodes)
	}
}

// TestHasManyAllocatesNothing: once its segments' residency indexes are
// built, HasMany of a 4 096-key chunk allocates nothing. The walk order
// is the one the store built when its segments last changed, so a
// scratch buffer or an order per call would show here. The chunk spans
// every segment and holds absent keys, so every segment's index is
// read. Snapshot allocates the snapshot alone.
func TestHasManyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	s, dg := deltaStore(t)
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("%d sealed segments, want at least 2", st.Segments)
	}
	keys := make([]Key, 0, 4096)
	var resident []bool // items from 400 on were never ingested
	for i := 0; len(keys) < cap(keys); i++ {
		for j := i + 1; j < len(dg) && len(keys) < cap(keys); j++ {
			keys = append(keys, Key{A: dg[i], B: dg[j]})
			resident = append(resident, j < 400)
		}
	}
	var snap *Snapshot
	if objs, _ := testutil.Allocs(func() { snap = s.Snapshot() }, 3); objs != 1 {
		t.Errorf("Snapshot of %d segments allocated %d objects, want 1: the segment orders are shared", len(s.newest), objs)
	}
	out := make([]bool, len(keys))
	snap.HasMany(keys, out) // warm: build the indexes
	objs, _ := testutil.Allocs(func() { snap.HasMany(keys, out) }, 3)
	if objs != 0 {
		t.Errorf("a warm HasMany of %d keys allocated %d objects, want 0", len(keys), objs)
	}
	if !slices.Equal(out, resident) {
		t.Fatal("HasMany answered wrong")
	}
}

// visitSum is the SegmentVisits of probing, once each, every key the
// segments hold, when each key has a record in one segment only and the
// walks go in the order of segs: Σ (rank + 1) × rows.
func visitSum(segs []*segment) uint64 {
	var sum uint64
	for rank, seg := range segs {
		sum += uint64(rank+1) * uint64(seg.rows)
	}
	return sum
}

// TestHasManySegmentVisits is the exact count behind HasMany's walk
// order. On a tombstone-free store every key is found in the first
// segment walked that holds it, and the walks go largest segment first,
// so a plan of every resident key makes visitSum(by size) visits. One
// tombstone anywhere puts the walks back in newest-first order.
func TestHasManySegmentVisits(t *testing.T) {
	s, dg := deltaStore(t)
	bySize := func() []*segment {
		segs := slices.Clone(s.newest)
		slices.SortStableFunc(segs, func(a, b *segment) int { return cmp.Compare(b.rows, a.rows) })
		return segs
	}
	want, newest := visitSum(bySize()), visitSum(s.newest)
	if want >= newest {
		t.Fatalf("store shape lost its point: %d visits largest first, %d newest first", want, newest)
	}
	before := s.Stats().SegmentVisits
	if plan := planBase(s.Snapshot(), dg, 400, nil); bytes.Contains(plan, []byte{0}) {
		t.Fatal("plan missed a resident pair")
	}
	if got := s.Stats().SegmentVisits - before; got != want {
		t.Fatalf("tombstone-free plan: %d segment visits, want %d (newest first: %d)", got, want, newest)
	}
	t.Logf("%d segments, %.3f visits per probe (newest first: %.3f)",
		len(s.newest), float64(want)/float64(s.Len()), float64(newest)/float64(s.Len()))

	// A key put and retracted in one log seals as a lone tombstone, the
	// only record of its key (its pair is reversed, so no plan asks for
	// it). The first such seal fills L0 and cascades into a bottom-level
	// merge, which drops the tombstone. The pairs up to item 440 come next,
	// auto-sealed and sealed into L0 until its next tier merge, then a
	// tombstone that stays: one segment on each of three levels.
	retractSeal := func(i int) Key {
		gone := Key{A: dg[i], B: dg[0]}
		s.Put(Entry{Key: gone})
		s.retract(gone)
		s.Seal()
		return gone
	}
	retractSeal(1)
	for _, j := range [][2]int{{400, 420}, {420, 440}} {
		b := NewBatch()
		for n := j[0]; n < j[1]; n++ {
			for i := 0; i < n; i++ {
				b.Add(Entry{Key: Key{A: dg[i], B: dg[n]}, Version: 440})
			}
		}
		s.Merge(b)
		s.Seal()
	}
	gone := retractSeal(2)
	if st := s.Stats(); st.Tombstones != 1 || st.Levels < 3 {
		t.Fatalf("%d tombstones on %d levels, want 1 on at least 3", st.Tombstones, st.Levels)
	}
	want = visitSum(s.newest)
	if want == visitSum(bySize()) {
		t.Fatal("with the tombstone both orders make the same visits")
	}
	before = s.Stats().SegmentVisits
	snap := s.Snapshot()
	out := []bool{true}
	snap.HasMany([]Key{gone}, out)
	if plan := planBase(snap, dg, 440, nil); out[0] || bytes.Contains(plan, []byte{0}) {
		t.Fatalf("plan beside a tombstone answered wrong (retracted key live=%v)", out[0])
	}
	if got := s.Stats().SegmentVisits - before; got != want {
		t.Fatalf("plan beside a tombstone: %d segment visits, want %d newest first", got, want)
	}
}

// TestDuplicateMergeDecodesEachBlockOnce: merging keys the sealed store
// already holds (a retried job, a second job on one dataset version)
// decides every duplicate from the cached key columns. Before the block
// cache each duplicate inflated a block of its own.
func TestDuplicateMergeDecodesEachBlockOnce(t *testing.T) {
	s, dg := deltaStore(t)
	s.Compact()
	b := NewBatch()
	for j := 1; j < 400; j++ {
		for i := j % 7; i < j; i += 16 {
			b.Add(Entry{Key: Key{A: dg[i], B: dg[j]}, Version: 400})
		}
	}
	before := s.Stats()
	if b.Len() < 10*before.Blocks {
		t.Fatalf("batch of %d too small against %d blocks", b.Len(), before.Blocks)
	}
	if added := s.Merge(b); added != 0 {
		t.Fatalf("merge of resident keys added %d entries", added)
	}
	after := s.Stats()
	if after.DupPuts-before.DupPuts != uint64(b.Len()) {
		t.Fatalf("dup puts = %d, want %d", after.DupPuts-before.DupPuts, b.Len())
	}
	if d := after.BlockDecodes - before.BlockDecodes; d > uint64(after.Blocks) {
		t.Fatalf("%d duplicate puts decoded %d blocks of %d", b.Len(), d, after.Blocks)
	}
}

// TestBlockCacheBound: point probes under a cache shrunk to two blocks
// stay exact, the cached bytes never pass the limit, and evicted blocks
// are inflated again, where under the default limit each block is
// inflated once. The Gets go i-major over pairs, so they come back to
// every segment's blocks again and again.
func TestBlockCacheBound(t *testing.T) {
	gets := func(s *Store, dg []Digest, each func()) (found []bool, keyColDecodes uint64) {
		before, hits := s.Stats().BlockDecodes, uint64(0)
		for i := 0; i < len(dg); i++ {
			for j := i + 1; j < len(dg); j += 61 {
				_, ok := s.Get(Key{A: dg[i], B: dg[j]})
				if found = append(found, ok); ok {
					hits++
				}
				each()
			}
		}
		// Every hit inflates its row's block once more, to read the row.
		return found, s.Stats().BlockDecodes - before - hits
	}
	s, dg := deltaStore(t)
	want, once := gets(s, dg, func() {})
	if blocks := uint64(s.Stats().Blocks); once == 0 || once > blocks {
		t.Fatalf("Gets under the default cache inflated %d key columns of %d blocks", once, blocks)
	}

	s, _ = deltaStore(t)
	kb, err := s.levels[len(s.levels)-1][0].decodeKeyCols(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.limit = 2*kb.bytes() + 1
	peak := int64(0)
	got, decodes := gets(s, dg, func() {
		peak = max(peak, s.Stats().BlockCacheBytes)
	})
	if !slices.Equal(got, want) {
		t.Fatal("Gets under a two-block cache differ from Gets under the default cache")
	}
	if peak == 0 || peak > s.cache.limit {
		t.Fatalf("cache peaked at %d bytes under a limit of %d", peak, s.cache.limit)
	}
	if blocks := uint64(s.Stats().Blocks); decodes <= blocks {
		t.Fatalf("a two-block cache cannot have served %d blocks in %d inflations", blocks, decodes)
	}
}

// TestPlanBesideMaintenance: a snapshot's plan is the same before,
// during and after Merge+Seal+Compact on another goroutine (run under
// -race). The segments compaction retired give their cached blocks back
// and keep their residency indexes, so the plans of the old snapshot
// inflate each of their blocks at most once between them.
func TestPlanBesideMaintenance(t *testing.T) {
	s, dg := deltaStore(t)
	// No auto-seal inside the Merge below, so no sealed dictionary holds
	// the new items and its duplicate checks inflate nothing.
	s.SetAutoSealThreshold(1 << 20)
	snap := s.Snapshot()
	old := snap.segs
	blocks := 0
	for _, seg := range old {
		blocks += len(seg.blocks)
		// A Get of each block's first key caches the block.
		for blk := range seg.blocks {
			kb, err := seg.decodeKeyCols(blk, &inflater{})
			if err != nil {
				t.Fatal(err)
			}
			k := Key{A: Digest(seg.dict[kb.aVal[0]]), B: Digest(seg.dict[kb.bAt(0)])}
			if _, ok := snap.Get(k); !ok {
				t.Fatalf("segment %d block %d: its first key reads absent", seg.id, blk)
			}
		}
	}
	s.mu.Lock()
	for _, seg := range old {
		if seg.kb == nil {
			t.Errorf("segment %d: Gets of its blocks cached none of them", seg.id)
		}
	}
	s.mu.Unlock()
	if s.Stats().BlockCacheBytes == 0 {
		t.Fatal("Gets left nothing cached")
	}
	var want []byte
	for i := 0; i < 440; i++ {
		for j := i + 1; j < 440; j++ {
			bit := byte(0)
			if j < 400 {
				bit = 1
			}
			want = append(want, bit)
		}
	}
	before := s.Stats().BlockDecodes

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := NewBatch()
		for j := 400; j < 440; j++ {
			for i := 0; i < j; i++ {
				b.Add(Entry{Key: Key{A: dg[i], B: dg[j]}, Version: 440})
			}
		}
		s.Merge(b)
		s.Seal()
		s.Compact()
	}()
	for r := 0; r < 2; r++ {
		if got := planBase(snap, dg, 440, nil); !bytes.Equal(got, want) {
			t.Errorf("plan %d beside maintenance differs from the plan before it", r)
		}
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if got := planBase(snap, dg, 440, nil); !bytes.Equal(got, want) {
			t.Errorf("plan %d after compaction differs from the plan before it", r)
		}
	}
	if d := s.Stats().BlockDecodes - before; d == 0 || d > uint64(blocks) {
		t.Fatalf("four plans of a snapshot whose segments were retired inflated %d of their %d blocks", d, blocks)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range old {
		if !seg.dead || seg.kb != nil || seg.res == nil {
			t.Fatalf("replaced segment %d: dead=%v, cached blocks %v, index %v; want dead, none, kept",
				seg.id, seg.dead, seg.kb != nil, seg.res != nil)
		}
	}
	live := int64(0)
	for _, kb := range s.levels[0][0].kb {
		if kb != nil {
			live += kb.bytes()
		}
	}
	if len(s.levels) != 1 || s.cache.bytes != live {
		t.Fatalf("cache holds %d bytes, the one live segment accounts for %d", s.cache.bytes, live)
	}
}

// keyColsMatch checks the probe-side decoder against the full one on
// one block: same dictionary indices, same tombstones.
func keyColsMatch(seg *segment, blk int) error {
	kb, err := seg.decodeKeyCols(blk, &inflater{})
	if err != nil {
		return err
	}
	d, err := seg.decodeBlock(blk, nil, nil)
	if err != nil {
		return err
	}
	if n := int(kb.aStart[len(kb.aVal)]); n != len(d.aIdx) {
		return fmt.Errorf("block %d: %d rows, full decode has %d", blk, n, len(d.aIdx))
	}
	for run, a := range kb.aVal {
		if run > 0 && a <= kb.aVal[run-1] {
			return fmt.Errorf("block %d: run %d does not ascend", blk, run)
		}
		for i := int(kb.aStart[run]); i < int(kb.aStart[run+1]); i++ {
			if uint64(a) != d.aIdx[i] || uint64(kb.bAt(i)) != d.bIdx[i] || kb.isTomb(i) != d.isTomb(i) {
				return fmt.Errorf("block %d row %d: key columns (%d,%d,%v), full decode (%d,%d,%v)",
					blk, i, a, kb.bAt(i), kb.isTomb(i), d.aIdx[i], d.bIdx[i], d.isTomb(i))
			}
			if pos, ok := kb.row(a, kb.bAt(i)); !ok || pos != i {
				return fmt.Errorf("block %d row %d: seek lands on %d (found=%v)", blk, i, pos, ok)
			}
		}
	}
	return nil
}

// TestKeyColumnsMatchFullDecode: decodeKeyCols ≡ decodeBlock on the
// columns both produce, over random segments from one run per block to
// one row per run, including the 1-row and exactly-full block edges.
func TestKeyColumnsMatchFullDecode(t *testing.T) {
	for _, n := range []int{1, 2, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 17} {
		for _, universe := range []int{1, 3, 70, 120, 4 * n} {
			if universe*universe < n {
				continue
			}
			seg := buildSegment(1, randRows(int64(n+universe), n, universe))
			for blk := range seg.blocks {
				if err := keyColsMatch(seg, blk); err != nil {
					t.Fatalf("n=%d universe=%d: %v", n, universe, err)
				}
			}
		}
	}
}

// TestSegmentNamesStable pins the content-addressed file names of a
// fixed ingest to the names the commit before the typed seal sort
// produced: sort and dictionary construction may get faster, the bytes
// may not change.
func TestSegmentNamesStable(t *testing.T) {
	s := New()
	s.SetAutoSealThreshold(1500)
	digest := DigestFunc("names", "forensics", 3)
	for j := 1; j < 130; j++ {
		for i := 0; i < j; i++ {
			e := Entry{Key: PairKey(digest, i, j), Version: 100 + j/10}
			if (i+j)%11 == 0 {
				e.Value = []byte(fmt.Sprintf(`{"d":%d}`, i*j))
			}
			s.Put(e)
		}
		if j%40 == 0 {
			s.retract(PairKey(digest, 0, j))
		}
	}
	s.Seal()
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(segmentDir(path))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, f.Name())
	}
	want := []string{"seg-181c349aae1983bf.rps", "seg-8201495995c7ea3a.rps", "seg-c62da0b71dac862f.rps"}
	if !slices.Equal(got, want) {
		t.Fatalf("segment names changed:\n got %q\nwant %q", got, want)
	}
}

// corruptOrEqual is the fuzz target's check on one block of a segment
// whose data bytes were damaged after the section checksums passed:
// both decoders must fail, with a *CorruptError, and the one-row walk
// must then read no row; or both must succeed and agree, and the walk
// read the rows the full decoder does (every 61st, and the last).
func corruptOrEqual(seg *segment, blk int) (failed bool, err error) {
	_, errK := seg.decodeKeyCols(blk, &inflater{})
	d, errF := seg.decodeBlock(blk, nil, nil)
	if (errK == nil) != (errF == nil) {
		return false, fmt.Errorf("block %d: key-column decoder says %v, full decoder %v", blk, errK, errF)
	}
	if errK == nil {
		if err := keyColsMatch(seg, blk); err != nil {
			return false, err
		}
		var z inflater
		read := func(k Key, r int) (row, bool, error) { return seg.readRow(blk, k, r, &z) }
		for i := 0; i < len(d.aIdx); i += 61 {
			if err := rowReadsMatch(d, seg, i, read); err != nil {
				return false, fmt.Errorf("block %d: %v", blk, err)
			}
		}
		return false, rowReadsMatch(d, seg, len(d.aIdx)-1, read)
	}
	var ce *CorruptError
	if !errors.As(errK, &ce) || !errors.As(errF, &ce) {
		return true, fmt.Errorf("block %d: errors %T / %T are not *CorruptError", blk, errK, errF)
	}
	return true, rowReadFailsClosed(seg, blk)
}
