package pairstore

import (
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"rocket/internal/testutil"
)

func TestSaveLoadColumnarRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := New()
	digest := DigestFunc("corpus", "forensics", 1)
	for i := 0; i < 300; i++ {
		s.Put(Entry{Key: PairKey(digest, i, i+1), Version: 300, Value: json.RawMessage(`{"r":1}`)})
	}
	s.Seal()
	for i := 300; i < 400; i++ {
		s.Put(Entry{Key: PairKey(digest, i, i+1), Version: 400})
	}
	s.retract(PairKey(digest, 0, 1)) // a tombstone in the mutable log
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	dir := segmentDir(path)
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("segment dir: %v, %d files (want 1)", err, len(files))
	}
	name := files[0].Name()
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".rps") {
		t.Fatalf("unexpected segment filename %q", name)
	}

	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 399 {
		t.Fatalf("reloaded len = %d, want 399", r.Len())
	}
	if r.has(PairKey(digest, 0, 1)) {
		t.Fatal("reloaded store forgot the tombstone")
	}
	if e, ok := r.Get(PairKey(digest, 5, 6)); !ok || string(e.Value) != `{"r":1}` {
		t.Fatalf("reloaded value = %+v ok=%v", e, ok)
	}
	st := r.Stats()
	if st.DiskBytes == 0 || st.BytesPerPair <= 0 {
		t.Fatalf("reloaded stats lack disk figures: %+v", st)
	}
	if st.Puts != 400 {
		t.Fatalf("persisted counters lost: %+v", st)
	}

	// Content addressing: a second save must not rewrite the segment.
	info1, _ := os.Stat(filepath.Join(dir, name))
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("segment file replaced instead of reused: %v", err)
	}
	if !info1.ModTime().Equal(info2.ModTime()) {
		t.Fatal("idempotent re-save rewrote the segment file")
	}
}

// TestCrashRecovery simulates a save interrupted between writing
// segment files and renaming the manifest: orphan segment and temp
// files must not break Load, and the next Save must sweep them.
func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := New()
	for i := 0; i < 50; i++ {
		s.Put(Entry{Key: Key{A: Digest(i), B: Digest(i + 1)}})
	}
	if err := s.SealAndSave(path); err != nil {
		t.Fatal(err)
	}
	dir := segmentDir(path)
	// Crash debris: an orphan segment (written, never referenced because
	// the manifest rename never happened) and a torn temp file.
	orphan := filepath.Join(dir, "seg-deadbeefdeadbeef.rps")
	if err := os.WriteFile(orphan, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-cafe.rps.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Load(path)
	if err != nil {
		t.Fatalf("load with crash debris: %v", err)
	}
	if r.Len() != 50 {
		t.Fatalf("reloaded len = %d", r.Len())
	}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("save did not sweep the orphan segment")
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Fatalf("save left temp debris %s", f.Name())
		}
	}
}

// TestLoadCorruptSegment checks that a torn or bit-flipped referenced
// segment surfaces as a *CorruptError naming the file.
func TestLoadCorruptSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s := New()
	for i := 0; i < 200; i++ {
		s.Put(Entry{Key: Key{A: Digest(i * 3), B: Digest(i*3 + 1)}})
	}
	if err := s.SealAndSave(path); err != nil {
		t.Fatal(err)
	}
	dir := segmentDir(path)
	files, _ := os.ReadDir(dir)
	segPath := filepath.Join(dir, files[0].Name())
	raw, _ := os.ReadFile(segPath)

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	for name, mut := range map[string][]byte{
		"truncated": raw[:len(raw)/2],
		"bit-flip":  flipped,
	} {
		if err := os.WriteFile(segPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: Load error %T (%v) is not *CorruptError", name, err, err)
		}
		if ce.Path != segPath {
			t.Fatalf("%s: CorruptError.Path = %q, want %q", name, ce.Path, segPath)
		}
	}
	// Missing file entirely.
	os.Remove(segPath)
	_, err := Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("missing segment: error %T is not *CorruptError", err)
	}
}

// TestLoadRejectsFormat1: format 1 (the pre-columnar JSON segment log) is
// not a format Load reads. It fails closed, naming the file and the format
// it found, and leaves the directory as it was.
func TestLoadRejectsFormat1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	legacy := `{"format":1,"segments":[` +
		`{"id":0,"sealed":true,"entries":[{"key":{"a":1,"b":2},"version":1}]}` +
		`],"stats":{"puts":1}}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err == nil || s != nil {
		t.Fatalf("Load of a format-1 manifest = (%v, %v), want (nil, error)", s, err)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "unknown format 1") {
		t.Fatalf("error %q does not name the path and the format", msg)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); len(names) != 1 || string(raw) != legacy {
		t.Fatalf("Load touched the directory: %d entries, manifest %q", len(names), raw)
	}
}

// TestDecodedSegmentOwnsItsBytes: a decoded segment must not pin the
// file buffer it was parsed from — that would keep the bloom filter,
// dictionary and block index bytes resident beside their decoded forms,
// unseen by IndexResidentBytes. Overwriting the buffer after the decode
// must leave every row readable.
func TestDecodedSegmentOwnsItsBytes(t *testing.T) {
	rows := randRows(5, 2*blockRows+9, 400)
	seg := buildSegment(9, rows)
	raw := seg.encodeFile(nil)
	dec, err := decodeSegmentFile(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xa5
	}
	got, want := newSegIter(dec), newSegIter(seg)
	n := 0
	for {
		g, ok := got.next()
		w, wok := want.next()
		if ok != wok || ok && !sameRow(g, w) {
			t.Fatalf("row %d after the file buffer was overwritten: %+v (%v), want %+v (%v); %v", n, g, ok, w, wok, got.err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(rows) {
		t.Fatalf("read %d rows, built %d", n, len(rows))
	}
}

// TestSaveAllocatesOneDeflater: a Save compresses every segment's
// dictionary through one flate writer, so saving a store of six
// segments allocates less than two writers' worth beyond four times the
// bytes it writes. A writer per segment allocated six.
func TestSaveAllocatesOneDeflater(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	_, writer := testutil.Allocs(func() { flate.NewWriter(io.Discard, flate.DefaultCompression) }, 3)
	stores := make([]*Store, 3)
	for i := range stores {
		stores[i], _ = deltaStore(t)
	}
	if n := len(stores[0].newest); n < 6 {
		t.Fatalf("store of %d segments, want at least 6", n)
	}
	dir := t.TempDir()
	run := 0
	_, saved := testutil.Allocs(func() {
		if err := stores[run].Save(filepath.Join(dir, fmt.Sprint(run), "store.json")); err != nil {
			t.Error(err)
		}
		run++
	}, len(stores))
	var written int64
	for _, seg := range stores[0].newest {
		written += seg.diskBytes
	}
	t.Logf("Save allocated %d B; one flate writer %d B; segment files %d B", saved, writer, written)
	if limit := 2*writer + 4*uint64(written); saved > limit {
		t.Fatalf("Save of %d segments allocated %d B, over %d (two flate writers of %d B, four times the %d B written)",
			len(stores[0].newest), saved, limit, writer, written)
	}
}

// TestLoadAllocatesOneInflater: a Load inflates every segment's
// dictionary with the store's own inflater. Loading a manifest that
// lists each segment file twice allocates, beyond loading the store, no
// more than reading and decoding its files once more through one warm
// inflater, plus one inflater's size of slack for the manifest and the
// store's longer segment lists. An inflater per segment allocated one
// more inflater and dictionary buffer for each of the six extra files.
func TestLoadAllocatesOneInflater(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	s, _ := deltaStore(t)
	if n := len(s.newest); n < 6 {
		t.Fatalf("store of %d segments, want at least 6", n)
	}
	once := filepath.Join(t.TempDir(), "store.json")
	if err := s.Save(once); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(once)
	if err != nil {
		t.Fatal(err)
	}
	var doc manifestDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	twice := filepath.Join(t.TempDir(), "store.json")
	if err := os.Mkdir(segmentDir(twice), 0o755); err != nil {
		t.Fatal(err)
	}
	var files []string
	for l, names := range doc.Levels {
		for _, name := range names {
			seg, err := os.ReadFile(filepath.Join(segmentDir(once), name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(segmentDir(twice), name), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			files = append(files, filepath.Join(segmentDir(once), name))
		}
		doc.Levels[l] = append(names, names...)
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(twice, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	load := func(path string) uint64 {
		_, b := testutil.Allocs(func() {
			if _, err := Load(path); err != nil {
				t.Error(err)
			}
		}, 3)
		return b
	}
	var z inflater
	decode := func() {
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeSegmentFile(raw, &z); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode() // warm: z's buffer holds the largest dictionary
	_, files1 := testutil.Allocs(decode, 3)
	once1, twice1 := load(once), load(twice)
	limit := once1 + files1 + uint64(unsafe.Sizeof(z))
	t.Logf("Load of %d segments %d B, of each twice %d B; the files once more %d B, an inflater %d B", len(files), once1, twice1, files1, unsafe.Sizeof(z))
	if twice1 > limit {
		t.Fatalf("Load of %d segment files listed twice allocated %d B, over %d: the %d B of a Load of each once, %d B to read and decode them through one inflater, and %d B of slack",
			len(files), twice1, limit, once1, files1, unsafe.Sizeof(z))
	}
}
