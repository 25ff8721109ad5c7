package pairstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	s.Delete(PairKey(digest, 0, 1)) // a tombstone in the mutable log
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
	if r.Has(PairKey(digest, 0, 1)) {
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
