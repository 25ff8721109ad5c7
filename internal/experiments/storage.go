package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rocket/internal/pairstore"
)

// storageRef is the store namespace of the storage-scaling benchmark's
// dataset lineage.
const storageRef = "benchstore"

// StorageResult is one measured point of the pairstore scaling sweep:
// an all-pairs store built to Pairs entries, sealed, compacted,
// persisted, reloaded (the warm-restart path), and then asked to plan
// a 10% pair delta against a fresh snapshot.
type StorageResult struct {
	Items              int
	Pairs              int64
	DiskBytes          int64
	BytesPerPair       float64
	IndexResidentBytes int64
	// PlanNs is the wall time of the planning probe alone: every base
	// pair resolved against the snapshot, chunked exactly like
	// core.buildStorePlan.
	PlanNs int64
	// PlanHash fingerprints the planned residency bitmap (sha256 of the
	// per-pair outcomes in probe order). Pure function of (ref, seed,
	// items), so it must be identical across runs and platforms.
	PlanHash string
	// Served is the number of base pairs the plan found resident —
	// Pairs, when the store is intact.
	Served       int64
	BloomHitRate float64
	// Blocks is the number of blocks in the reloaded store's segments;
	// BlockDecodes the block inflations the plan caused.
	Blocks       int
	BlockDecodes uint64
	Seals        uint64
	Levels       int
	Segments     int
	// IngestBytesPerPair and IngestAllocsPerPair are the heap bytes and
	// objects the ingestion (every Put and the final Seal) allocated per
	// pair, by runtime.MemStats deltas: counts that repeat, where the
	// ingest's wall time does not.
	IngestBytesPerPair  float64
	IngestAllocsPerPair float64
}

// storageItemsForPairs returns the item count whose all-pairs set is
// the smallest to reach at least pairs.
func storageItemsForPairs(pairs int64) int {
	n := 2
	for int64(n)*int64(n-1)/2 < pairs {
		n++
	}
	return n
}

// MeasureStorage runs one storage point: build an all-pairs store over
// the item count reaching at least pairs, push it through the full
// lifecycle (auto-sealing ingestion → Seal → Compact → Save → Load),
// then plan a 10% delta on the reloaded store. dir receives the
// persisted store (a manifest plus a .segments sidecar); the caller
// owns cleanup.
func MeasureStorage(pairs int64, seed uint64, dir string) (StorageResult, error) {
	items := storageItemsForPairs(pairs)
	digest := pairstore.DigestFunc(storageRef, "storage", seed)

	s := pairstore.New()
	// A bounded memtable forces the ingestion path through auto-seal and
	// tiered compaction instead of building one giant log in memory.
	s.SetAutoSealThreshold(1 << 18)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < items; i++ {
		for j := i + 1; j < items; j++ {
			s.Put(pairstore.Entry{Key: pairstore.PairKey(digest, i, j), Version: items})
		}
	}
	s.Seal()
	runtime.ReadMemStats(&m1)
	s.Compact()

	path := filepath.Join(dir, "store.json")
	if err := s.Save(path); err != nil {
		return StorageResult{}, err
	}
	r, err := pairstore.Load(path)
	if err != nil {
		return StorageResult{}, err
	}

	res := StorageResult{Items: items, Pairs: int64(items) * int64(items-1) / 2}
	res.IngestBytesPerPair = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Pairs)
	res.IngestAllocsPerPair = float64(m1.Mallocs-m0.Mallocs) / float64(res.Pairs)
	st := r.Stats()
	res.DiskBytes = st.DiskBytes
	res.BytesPerPair = st.BytesPerPair
	res.IndexResidentBytes = st.IndexResidentBytes
	res.Seals = st.Seals
	res.Levels = st.Levels
	res.Segments = st.Segments
	res.Blocks = st.Blocks

	// Plan a 10% pair delta: the dataset grows ~10% in pairs, and the
	// delta job's plan verifies every base-region pair against the
	// snapshot (the new-vs-all pairs are known absent and skip probing)
	// — the exact probe core.buildStorePlan issues, same chunking, same
	// order. The probe volume is therefore the full base region,
	// independent of the growth factor.
	snap := r.Snapshot()
	const probeChunk = 4096
	keys := make([]pairstore.Key, 0, probeChunk)
	out := make([]bool, probeChunk)
	bits := make([]byte, probeChunk)
	h := sha256.New()
	var served int64
	start := time.Now()
	flush := func() {
		if len(keys) == 0 {
			return
		}
		snap.HasMany(keys, out)
		for k := range keys {
			bits[k] = 0
			if out[k] {
				served++
				bits[k] = 1
			}
		}
		h.Write(bits[:len(keys)])
		keys = keys[:0]
	}
	for i := 0; i < items; i++ {
		for j := i + 1; j < items; j++ {
			keys = append(keys, pairstore.PairKey(digest, i, j))
			if len(keys) == probeChunk {
				flush()
			}
		}
	}
	flush()
	res.PlanNs = time.Since(start).Nanoseconds()
	res.PlanHash = fmt.Sprintf("%x", h.Sum(nil))
	res.Served = served
	after := r.Stats()
	res.BloomHitRate = after.BloomHitRate
	res.BlockDecodes = after.BlockDecodes - st.BlockDecodes
	return res, nil
}

// MeasureStorageTemp is MeasureStorage against a throwaway directory.
func MeasureStorageTemp(pairs int64, seed uint64) (StorageResult, error) {
	dir, err := os.MkdirTemp("", "rocket-storage-*")
	if err != nil {
		return StorageResult{}, err
	}
	defer os.RemoveAll(dir)
	return MeasureStorage(pairs, seed, dir)
}
