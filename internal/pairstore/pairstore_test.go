package pairstore

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// has reports whether k is live.
func (s *Store) has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookupLocked(k, false)
	return ok && !e.Tombstone
}

// has reports whether k was live when the snapshot was taken.
func (sn *Snapshot) has(k Key) bool {
	if sn == nil || sn.s == nil {
		return false
	}
	sn.s.mu.Lock()
	defer sn.s.mu.Unlock()
	e, ok := sn.resolve(k, false)
	return ok && !e.Tombstone
}

func keyOf(i, j int) Key {
	d := DigestFunc("ref", "app", 7)
	return PairKey(d, i, j)
}

func TestDigestDeterministicAndDistinct(t *testing.T) {
	a := DigestItem("corpus", "forensics", 7, 3)
	if b := DigestItem("corpus", "forensics", 7, 3); b != a {
		t.Fatalf("digest not deterministic: %x vs %x", a, b)
	}
	variants := []Digest{
		DigestItem("corpus", "forensics", 7, 4),
		DigestItem("corpus", "forensics", 8, 3),
		DigestItem("corpus", "microscopy", 7, 3),
		DigestItem("other", "forensics", 7, 3),
		DigestItem("corpusf", "orensics", 7, 3), // boundary shift
	}
	// Regression: with a variable-length seed/item encoding these two
	// lineages collided (a data byte mimicking the separator).
	if DigestItem("ref", "app", 0xFD, 0x1FD) == DigestItem("ref", "app", 0xFDFD, 1) {
		t.Fatal("seed/item byte-boundary shift collides")
	}
	seen := map[Digest]bool{a: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides: %x", i, v)
		}
		seen[v] = true
	}
}

func TestDigestStableUnderGrowth(t *testing.T) {
	// The digest of item i must not depend on the dataset size: that is
	// the property that makes append-only growth reusable.
	d := DigestFunc("corpus", "forensics", 7)
	before := make([]Digest, 10)
	for i := range before {
		before[i] = d(i)
	}
	// "Grow" the dataset: same lineage, more items — old digests fixed.
	for i := range before {
		if got := DigestItem("corpus", "forensics", 7, i); got != before[i] {
			t.Fatalf("item %d digest changed under growth", i)
		}
	}
}

func TestPutGetAppendOnly(t *testing.T) {
	s := New()
	e1 := Entry{Key: keyOf(0, 1), Version: 4, Value: json.RawMessage(`1`)}
	if !s.Put(e1) {
		t.Fatal("first Put rejected")
	}
	if s.Put(Entry{Key: keyOf(0, 1), Version: 5, Value: json.RawMessage(`2`)}) {
		t.Fatal("duplicate Put accepted")
	}
	got, ok := s.Get(keyOf(0, 1))
	if !ok || string(got.Value) != "1" || got.Version != 4 {
		t.Fatalf("Get = %+v, %v; want first write", got, ok)
	}
	if s.has(keyOf(0, 2)) {
		t.Fatal("Has reports an absent key")
	}
	st := s.Stats()
	if st.Puts != 1 || st.DupPuts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotImmutable(t *testing.T) {
	s := New()
	s.Put(Entry{Key: keyOf(0, 1)})
	snap := s.Snapshot()
	s.Put(Entry{Key: keyOf(0, 2)})
	if !snap.has(keyOf(0, 1)) {
		t.Fatal("snapshot lost a resident key")
	}
	if snap.has(keyOf(0, 2)) {
		t.Fatal("snapshot observed a later append")
	}
	if snap.Len() != 1 || s.Len() != 2 {
		t.Fatalf("Len: snap %d store %d", snap.Len(), s.Len())
	}
	var nilSnap *Snapshot
	if nilSnap.has(keyOf(0, 1)) || nilSnap.Len() != 0 {
		t.Fatal("nil snapshot must be empty")
	}
}

func TestMergeBatch(t *testing.T) {
	s := New()
	s.Put(Entry{Key: keyOf(0, 1)})
	b := NewBatch()
	b.Add(Entry{Key: keyOf(0, 1)}) // dup
	b.Add(Entry{Key: keyOf(0, 2), Value: json.RawMessage(`9`)})
	if got := s.Merge(b); got != 1 {
		t.Fatalf("Merge added %d, want 1", got)
	}
	if b.Len() != 2 || b.Bytes() != 2*EntryOverheadBytes+1 {
		t.Fatalf("batch len %d bytes %d", b.Len(), b.Bytes())
	}
	if s.Merge(nil) != 0 {
		t.Fatal("nil batch merged entries")
	}
}

// TestBatchChunksKeepAddOrder: a batch keeps its entries in chunks that
// double in size, each filled before the next is made, so Add never
// copies; Len, Bytes and Merge see the entries in the order they were
// added, across every chunk boundary.
func TestBatchChunksKeepAddOrder(t *testing.T) {
	const n = 1000
	b := NewBatch()
	var bytes int64
	for i := 0; i < n; i++ {
		e := Entry{Key: keyOf(i, i+1), Version: i}
		if i%3 == 0 {
			e.Value = json.RawMessage(`{"x":1}`)
		}
		b.Add(e)
		bytes += entryBytes(e)
	}
	if b.Len() != n || b.Bytes() != bytes {
		t.Fatalf("batch len %d bytes %d, want %d and %d", b.Len(), b.Bytes(), n, bytes)
	}
	i := 0
	for k, c := range b.chunks {
		if cap(c) != firstBatchChunk<<k || k < len(b.chunks)-1 && len(c) != cap(c) {
			t.Fatalf("chunk %d holds %d of %d entries, want a capacity of %d, full unless last", k, len(c), cap(c), firstBatchChunk<<k)
		}
		for _, e := range c {
			if e.Version != i {
				t.Fatalf("entry %d of the batch has version %d", i, e.Version)
			}
			i++
		}
	}
	// Merge puts in batch order: of two entries for one key, the first wins.
	b.Add(Entry{Key: keyOf(0, 1), Version: -1})
	s := New()
	if got := s.Merge(b); got != n {
		t.Fatalf("Merge added %d, want %d", got, n)
	}
	if e, ok := s.Get(keyOf(0, 1)); !ok || e.Version != 0 {
		t.Fatalf("Get = %+v, %v; want the first entry added", e, ok)
	}
}

// TestPutOfNewItemSkipsSegments: a key with a digest no sealed segment's
// dictionary holds — any pair of a newly appended item — is resolved by
// the store's digest set, without a bloom test on any segment, while a
// key whose digests are both sealed still goes to the segments.
func TestPutOfNewItemSkipsSegments(t *testing.T) {
	s := New()
	for j := 1; j < 40; j++ {
		for i := 0; i < j; i++ {
			s.Put(Entry{Key: keyOf(i, j)})
		}
		if j%13 == 0 {
			s.Seal()
		}
	}
	if st := s.Stats(); st.Segments != 3 {
		t.Fatalf("%d segments, want 3", st.Segments)
	}
	probes := s.Stats().BloomProbes
	for i := 0; i < 40; i++ {
		if !s.Put(Entry{Key: keyOf(i, 40)}) {
			t.Fatalf("pair (%d, 40) of a new item refused", i)
		}
	}
	if _, ok := s.Get(keyOf(40, 41)); ok {
		t.Fatal("Get found a pair of two unseen items")
	}
	if s.retract(keyOf(41, 3)) {
		t.Fatal("retract deleted a pair of an unseen item")
	}
	if got := s.Stats().BloomProbes; got != probes {
		t.Fatalf("keys with an unsealed digest made %d bloom probes, want 0", got-probes)
	}
	if s.Put(Entry{Key: keyOf(3, 17)}) {
		t.Fatal("a sealed pair was put twice")
	}
	if got := s.Stats().BloomProbes; got == probes {
		t.Fatal("a key with both digests sealed made no bloom probe")
	}
	// Sealed, item 40's pairs are found through the segments.
	s.Seal()
	if s.Put(Entry{Key: keyOf(7, 40)}) || !s.retract(keyOf(8, 40)) {
		t.Fatal("a pair of item 40 was lost to the digest set when sealed")
	}
}

func TestSealAndCompact(t *testing.T) {
	s := New()
	s.Put(Entry{Key: keyOf(0, 1), Value: json.RawMessage(`1`)})
	s.Seal()
	s.Seal() // empty active segment: no-op
	s.Put(Entry{Key: keyOf(0, 2)})
	if st := s.Stats(); st.Segments != 2 || st.LogEntries != 2 {
		t.Fatalf("after seal: %+v", st)
	}
	// Craft a duplicate in the log (possible across Load-merged logs):
	// bypass the index check by merging two saved stores is overkill;
	// Compact must simply preserve distinct keys and count drops.
	dropped := s.Compact()
	if dropped != 0 {
		t.Fatalf("compact dropped %d from a dup-free log", dropped)
	}
	st := s.Stats()
	if st.Segments != 1 || st.LogEntries != 2 || st.Compactions != 1 {
		t.Fatalf("after compact: %+v", st)
	}
	if !s.has(keyOf(0, 1)) || !s.has(keyOf(0, 2)) {
		t.Fatal("compact lost keys")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	s.Put(Entry{Key: keyOf(0, 1), Version: 8, Value: json.RawMessage(`{"r":1}`)})
	s.Seal()
	s.Put(Entry{Key: keyOf(1, 2), Version: 12})
	s.RecordServe(5, 1, 160, 48)
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", r.Len())
	}
	e, ok := r.Get(keyOf(0, 1))
	if !ok || string(e.Value) != `{"r":1}` || e.Version != 8 {
		t.Fatalf("reloaded entry = %+v, %v", e, ok)
	}
	st := r.Stats()
	if st.ServedPairs != 5 || st.MissedPairs != 1 || st.ReadBytes != 160 {
		t.Fatalf("counters not persisted: %+v", st)
	}
	// The reloaded store accepts appends (active segment reopened).
	if !r.Put(Entry{Key: keyOf(2, 3)}) {
		t.Fatal("reloaded store rejects appends")
	}
}

// TestMemtableGrowsPastChurn doubles the memtable index while the log
// holds more entries than the old index had slots: delete/re-put churn
// on one key adds entries but no keys. Load replays the saved log
// through the same growth.
func TestMemtableGrowsPastChurn(t *testing.T) {
	s := New()
	s.Put(Entry{Key: keyOf(0, 1)})
	for v := 1; v <= 20; v++ {
		s.retract(keyOf(0, 1))
		s.Put(Entry{Key: keyOf(0, 1), Version: v})
	}
	for j := 2; j <= 65; j++ { // 41 entries, then keys 2..65 double the index twice
		s.Put(Entry{Key: keyOf(0, j), Version: j})
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"store": s, "reloaded": r} {
		if got := st.Stats(); got.Entries != 65 || got.LogEntries != 105 || got.Tombstones != 20 {
			t.Fatalf("%s: %d entries, %d in the log, %d tombstones; want 65, 105, 20",
				name, got.Entries, got.LogEntries, got.Tombstones)
		}
		for j := 1; j <= 65; j++ {
			want := j
			if j == 1 {
				want = 20
			}
			if e, ok := st.Get(keyOf(0, j)); !ok || e.Version != want {
				t.Fatalf("%s: Get(0, %d) = %+v, %v; want version %d", name, j, e, ok, want)
			}
		}
	}
}

// TestMemtableSizedToLastLog: each log is sized from the one sealed
// before it, so a log as long as the last never regrows, and a short log
// after a long one does not inherit the long one's size.
func TestMemtableSizedToLastLog(t *testing.T) {
	s := New()
	next := 1
	fill := func(n int) {
		for ; n > 0; n-- {
			s.Put(Entry{Key: keyOf(0, next)})
			next++
		}
	}
	fill(5000)
	s.Seal()
	fill(1)
	room := cap(s.mem.entries)
	if room < 5000 {
		t.Fatalf("a log after a 5000-entry one starts with room for %d", room)
	}
	fill(4999)
	if got := cap(s.mem.entries); got != room {
		t.Fatalf("a log as long as the last regrew from %d to %d entries", room, got)
	}
	s.Seal()
	fill(10)
	s.Seal()
	fill(1)
	if got := cap(s.mem.entries); got > 64 {
		t.Fatalf("a log after a 10-entry one starts with room for %d", got)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestDeltaPairs(t *testing.T) {
	cases := []struct {
		n, base int
		want    int64
	}{
		{10, 0, 45},
		{10, 10, 0},
		{11, 10, 10},     // one appended item pairs with all ten
		{110, 100, 1045}, // 10% growth: 10·100 + 45
		{10, 12, 0},      // base beyond n clamps
		{10, -1, 45},     // negative base clamps
	}
	for _, c := range cases {
		if got := DeltaPairs(c.n, c.base); got != c.want {
			t.Fatalf("DeltaPairs(%d, %d) = %d, want %d", c.n, c.base, got, c.want)
		}
	}
}
