package pairstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
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
			for _, e := range b.entries {
				s.Put(e)
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
// speed-up: a plan whose blocks fit the cache inflates each block at
// most once, however often its i-major chunks come back to it, and a
// second plan inflates nothing.
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
	if mid.BlockCacheHits == before.BlockCacheHits {
		t.Fatal("first plan never hit the block cache")
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

// TestBlockCacheBound shrinks the cache to two blocks: plans stay exact
// and the cached bytes never pass the limit.
func TestBlockCacheBound(t *testing.T) {
	s, dg := deltaStore(t)
	want := planBase(s.Snapshot(), dg, 440, nil)

	s, _ = deltaStore(t)
	kb, err := s.levels[len(s.levels)-1][0].decodeKeyCols(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.limit = 2*kb.bytes() + 1
	peak := int64(0)
	got := planBase(s.Snapshot(), dg, 440, func() {
		peak = max(peak, s.Stats().BlockCacheBytes)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("plan under a two-block cache differs from the plan under the default cache")
	}
	if peak == 0 || peak > s.cache.limit {
		t.Fatalf("cache peaked at %d bytes under a limit of %d", peak, s.cache.limit)
	}
	if st := s.Stats(); st.BlockDecodes <= uint64(st.Blocks) {
		t.Fatalf("a two-block cache cannot have served %d blocks in %d decodes", st.Blocks, st.BlockDecodes)
	}
}

// TestPlanBesideMaintenance: a snapshot's plan is the same before,
// during and after Merge+Seal+Compact on another goroutine (run under
// -race), and the segments compaction replaced give their cached blocks
// back and are not admitted again.
func TestPlanBesideMaintenance(t *testing.T) {
	s, dg := deltaStore(t)
	snap := s.Snapshot()
	want := planBase(snap, dg, 440, nil)
	old := snap.segs
	if s.Stats().BlockCacheBytes == 0 {
		t.Fatal("plan left nothing cached")
	}

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
	if got := planBase(snap, dg, 440, nil); !bytes.Equal(got, want) {
		t.Error("plan after compaction differs from the plan before it")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range old {
		if !seg.dead || seg.kb != nil {
			t.Fatalf("replaced segment %d still holds cached blocks (dead=%v)", seg.id, seg.dead)
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
			if _, pos, ok := kb.seek(0, 0, a, kb.bAt(i)); !ok || pos != i {
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
// both decoders must fail, with a *CorruptError, or both must succeed
// and agree.
func corruptOrEqual(seg *segment, blk int) (failed bool, err error) {
	_, errK := seg.decodeKeyCols(blk, &inflater{})
	_, errF := seg.decodeBlock(blk, nil, nil)
	if (errK == nil) != (errF == nil) {
		return false, fmt.Errorf("block %d: key-column decoder says %v, full decoder %v", blk, errK, errF)
	}
	if errK == nil {
		return false, keyColsMatch(seg, blk)
	}
	var ce *CorruptError
	if !errors.As(errK, &ce) || !errors.As(errF, &ce) {
		return true, fmt.Errorf("block %d: errors %T / %T are not *CorruptError", blk, errK, errF)
	}
	return true, nil
}
