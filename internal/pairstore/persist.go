package pairstore

// Persistence: a JSON manifest at path plus a content-addressed sidecar
// directory of columnar segment files.
//
//	<path>               manifest (format 2): levels → segment filenames,
//	                     the mutable log's entries, counters
//	<path>.segments/     seg-<sha256[:16]>.rps, one per sealed segment
//
// Segment files are immutable and named by the hash of their contents,
// so a re-save after a warm restart rewrites nothing that already
// exists, replication can sync by filename, and a crashed save leaves
// at worst unreferenced files (removed by the GC sweep on the next
// save) and *.tmp debris — never a manifest pointing at a torn file.
// Every write is temp-file + rename in the same directory, the same
// atomicity protocol the rest of the repo uses for manifests.
//
// Format 2 is the only format: Load refuses any other manifest with an
// error naming the path and the format it found, and writes nothing.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

const manifestFormat = 2

// manifestDoc is the manifest.
type manifestDoc struct {
	Format int `json:"format"`
	// Levels lists the sealed segment filenames per tier, innermost
	// order matching Store.levels (oldest first within a level).
	Levels [][]string `json:"levels"`
	// Mem is the mutable log, in append order (tombstones included);
	// compact marshaling keeps embedded raw values byte-identical.
	Mem     []Entry `json:"mem,omitempty"`
	NextSeg uint64  `json:"next_seg"`
	Live    int     `json:"live"`
	Stats   Stats   `json:"stats"`
}

// segmentDir is the sidecar directory holding a store's segment files.
func segmentDir(path string) string { return path + ".segments" }

// segmentFileName is the content-addressed name of an encoded segment.
func segmentFileName(raw []byte) string {
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("seg-%s.rps", hex.EncodeToString(sum[:8]))
}

// writeFileAtomic writes data to path via a temp file + rename in the
// same directory.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Save writes the store to path: sealed segments as content-addressed
// files under path+".segments", then the manifest, atomically. Already
// persisted segments are not rewritten (content addressing makes the
// check a filename comparison); unreferenced segment files and stale
// temp files are swept afterwards.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	dir := segmentDir(path)
	needDir := false
	for _, level := range s.levels {
		if len(level) > 0 {
			needDir = true
		}
	}
	if needDir {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	doc := manifestDoc{
		Format:  manifestFormat,
		Levels:  make([][]string, len(s.levels)),
		NextSeg: s.nextSeg,
		Live:    s.live,
		Stats:   s.stats,
	}
	referenced := make(map[string]bool)
	for l, level := range s.levels {
		doc.Levels[l] = make([]string, len(level))
		for i, seg := range level {
			if seg.file == "" {
				raw := seg.encodeFile()
				name := segmentFileName(raw)
				full := filepath.Join(dir, name)
				if _, err := os.Stat(full); err != nil {
					if err := writeFileAtomic(full, raw); err != nil {
						return err
					}
				}
				seg.file = name
				seg.diskBytes = int64(len(raw))
			}
			doc.Levels[l][i] = seg.file
			referenced[seg.file] = true
		}
	}
	for _, me := range s.mem.entries {
		doc.Mem = append(doc.Mem, me.e)
	}

	// Compact marshaling keeps embedded raw values byte-identical across
	// a Save/Load round trip (indentation would reformat them).
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, append(buf, '\n')); err != nil {
		return err
	}

	// GC: drop unreferenced segment files and temp debris. Best-effort —
	// an orphan costs disk, never correctness.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, de := range entries {
			name := de.Name()
			if strings.HasSuffix(name, ".tmp") ||
				(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".rps") && !referenced[name]) {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	return nil
}

// Load reads a store saved with Save. Unknown segment files in the
// sidecar directory are ignored (a crashed save may leave orphans); a
// referenced segment that is missing, truncated, or corrupt is a
// *CorruptError naming the file.
func Load(path string) (*Store, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc manifestDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("pairstore: %s: %w", path, err)
	}
	if doc.Format != manifestFormat {
		return nil, fmt.Errorf("pairstore: %s: unknown format %d", path, doc.Format)
	}
	s := New()
	dir := segmentDir(path)
	s.levels = make([][]*segment, len(doc.Levels))
	for l, names := range doc.Levels {
		for _, name := range names {
			full := filepath.Join(dir, name)
			segRaw, err := os.ReadFile(full)
			if err != nil {
				return nil, &CorruptError{Path: full, Section: "file", Reason: err.Error()}
			}
			seg, err := decodeSegmentFile(segRaw)
			if err != nil {
				if ce, ok := err.(*CorruptError); ok {
					ce.Path = full
				}
				return nil, err
			}
			seg.file = name
			s.levels[l] = append(s.levels[l], seg)
		}
	}
	for _, e := range doc.Mem {
		s.mem.add(e)
	}
	s.nextSeg = doc.NextSeg
	s.live = doc.Live
	s.stats = doc.Stats
	resetDerivedStats(&s.stats)
	return s, nil
}

// resetDerivedStats zeroes the fields Stats() recomputes from live
// state; only the monotonic counters survive persistence.
func resetDerivedStats(st *Stats) {
	st.Entries = 0
	st.Segments = 0
	st.Levels = 0
	st.LogEntries = 0
	st.Bytes = 0
	st.DiskBytes = 0
	st.BytesPerPair = 0
	st.IndexResidentBytes = 0
	st.Blocks = 0
	st.BlockCacheBytes = 0
	st.Tombstones = 0
	st.BloomHitRate = 0
}

// LoadOrNew loads the store at path, or returns a fresh one (loaded =
// false) when no store exists there yet. Errors other than absence are
// the CLI persistence lifecycle.
func LoadOrNew(path string) (s *Store, loaded bool, err error) {
	s, err = Load(path)
	if err == nil {
		return s, true, nil
	}
	if os.IsNotExist(err) {
		return New(), false, nil
	}
	return nil, false, err
}

// SealAndSave seals the mutable log (so the next session appends to a
// fresh one) and saves to path.
func (s *Store) SealAndSave(path string) error {
	s.Seal()
	return s.Save(path)
}
