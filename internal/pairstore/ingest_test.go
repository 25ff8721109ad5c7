package pairstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rocket/internal/testutil"
)

// ingestShape is the benchmark's store_delta ingest at a reduced size:
// the dataset grows through five versions (3/5, 7/10, 4/5, 9/10 and all
// of items), ingested by Put and by Batch + Merge in turn and sealed
// after each; then one key is deleted and put again. Every thirteenth
// pair carries a value, so the value columns are written too. The
// batches are built up front; the returned ingest makes exactly the
// store's calls on s and returns the pairs ingested.
func ingestShape(t testing.TB, items int) (ingest func(s *Store) int) {
	t.Helper()
	digest := DigestFunc("ingest", "forensics", 1)
	dg := make([]Digest, items)
	for i := range dg {
		dg[i] = digest(i)
	}
	var versions []*Batch
	prev := 0
	for _, n := range []int{items * 3 / 5, items * 7 / 10, items * 4 / 5, items * 9 / 10, items} {
		b := NewBatch()
		for j := prev; j < n; j++ {
			for i := 0; i < j; i++ {
				e := Entry{Key: Key{A: dg[i], B: dg[j]}, Version: n}
				if (i+j)%13 == 0 {
					e.Value = []byte(fmt.Sprintf(`{"s":%d}`, i*j%97))
				}
				b.Add(e)
			}
		}
		versions = append(versions, b)
		prev = n
	}
	return func(s *Store) int {
		pairs := 0
		for v, b := range versions {
			if v%2 == 0 {
				for _, c := range b.chunks {
					for _, e := range c {
						s.Put(e)
					}
				}
			} else if got := s.Merge(b); got != b.Len() {
				t.Fatalf("version %d: merged %d of %d", v, got, b.Len())
			}
			s.Seal()
			pairs += b.Len()
		}
		k := Key{A: dg[3], B: dg[items/2]}
		if !s.retract(k) || !s.Put(Entry{Key: k, Version: items + 1, Value: []byte(`{"s":-1}`)}) {
			t.Fatal("delete and re-put of a live key rejected")
		}
		return pairs
	}
}

// saveDigest saves s to path and hashes what landed on disk: the
// manifest and every segment file, by name and content, in name order.
func saveDigest(t *testing.T, s *Store, path string) string {
	t.Helper()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	files := []string{path}
	if des, err := os.ReadDir(segmentDir(path)); err == nil {
		var segs []string
		for _, de := range des {
			segs = append(segs, filepath.Join(segmentDir(path), de.Name()))
		}
		sort.Strings(segs)
		files = append(files, segs...)
	}
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestIngestGolden pins the bytes a store_delta-shaped ingest persists —
// auto-seals at 2¹⁰ entries, two tier levels, a tombstone in the log —
// before and after a full Compact. The write path may get faster; what
// it writes may not change. The goldens were taken before the streaming
// seal and are never regenerated to make a change pass. One stated edit:
// when point probes began skipping the segments for keys with a digest
// no dictionary holds, the manifest's bloom counters fell (probes
// 58 196 → 4 214, negatives 57 675 → 4 176, false positives 520 → 37);
// every other manifest field and every segment file kept its bytes.
func TestIngestGolden(t *testing.T) {
	s := New()
	s.SetAutoSealThreshold(1 << 10)
	ingestShape(t, 200)(s)
	if st := s.Stats(); st.Levels < 2 || st.Tombstones == 0 {
		t.Fatalf("ingest shape lost its point: %d levels, %d tombstones", st.Levels, st.Tombstones)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	got := [2]string{saveDigest(t, s, path)}
	s.Compact()
	got[1] = saveDigest(t, s, path)
	want := [2]string{
		"492022e7f17b253f75d135d6c3d723e2f55565a01ec7c104028e5f52948fe8b6",
		"545886b6cc757c800a64ff4bff7d6f179c17f0f983c46f93c70b310696af361b",
	}
	if got != want {
		t.Fatalf("persisted bytes changed:\n got %q\nwant %q", got, want)
	}
}

// TestIngestAllocationBudget holds the write path to a count budget:
// objects and bytes allocated per ingested pair, by MemStats deltas over
// the store's calls alone (the cheapest of three ingests into fresh
// stores, see testutil.Allocs), at two sizes of the golden's shape with the
// benchmark's ratio of pairs to auto-seal threshold (≈ 7.6). Before the
// presized memtable and the streaming seal the two sizes read 0.032 and
// 0.029 objects, 927 and 919 B per pair; the byte budget is half the
// smaller figure. What objects remain are mostly compress/flate's: its
// decoder allocates link tables for every dynamic block a merge reads.
func TestIngestAllocationBudget(t *testing.T) {
	const objsBudget, bytesBudget = 0.01, 459
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	for _, c := range []struct{ items, autoSeal int }{{1000, 1 << 16}, {1400, 1 << 17}} {
		ingest := ingestShape(t, c.items)
		stores := make([]*Store, 3)
		for i := range stores {
			stores[i] = New()
			stores[i].SetAutoSealThreshold(c.autoSeal)
		}
		run, pairs := 0, 0
		o, b := testutil.Allocs(func() {
			s := stores[run]
			stores[run], run = nil, run+1
			pairs = ingest(s)
		}, len(stores))
		objs, bytes := float64(o)/float64(pairs), float64(b)/float64(pairs)
		t.Logf("%d items, auto-seal %d: %.5f objects and %.0f B per pair", c.items, c.autoSeal, objs, bytes)
		if objs > objsBudget || bytes > bytesBudget {
			t.Errorf("%d items: %.4f objects and %.0f B per ingested pair, budget %.2f and %d B",
				c.items, objs, bytes, objsBudget, bytesBudget)
		}
	}
}
