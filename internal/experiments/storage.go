package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

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
	// PlanHash fingerprints the planned residency bitmap (sha256 of the
	// per-pair outcomes in probe order). Pure function of (ref, seed,
	// items), so it must be identical across runs and platforms.
	PlanHash     string
	BloomHitRate float64
	// Blocks is the number of blocks in the reloaded store's segments;
	// BlockDecodes the block inflations the plan caused.
	Blocks       int
	BlockDecodes uint64
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

// newStorageStore returns an empty store whose bounded memtable forces
// ingestion through auto-seal and tiered compaction instead of building
// one giant log in memory.
func newStorageStore() *pairstore.Store {
	s := pairstore.New()
	s.SetAutoSealThreshold(1 << 18)
	return s
}

// storageIngest puts every pair of items into s, then seals it.
func storageIngest(s *pairstore.Store, items int, digest func(int) pairstore.Digest) {
	for i := 0; i < items; i++ {
		for j := i + 1; j < items; j++ {
			s.Put(pairstore.Entry{Key: pairstore.PairKey(digest, i, j), Version: items})
		}
	}
	s.Seal()
}

// MeasureStorage runs one storage point: build an all-pairs store over
// the item count reaching at least pairs, push it through the full
// lifecycle (auto-sealing ingestion → Seal → Compact → Save → Load) in a
// throwaway directory, then plan a 10% delta on the reloaded store. It
// fails when the plan finds any base pair missing from the reloaded
// store.
func MeasureStorage(pairs int64, seed uint64) (StorageResult, error) {
	dir, err := os.MkdirTemp("", "rocket-storage-*")
	if err != nil {
		return StorageResult{}, err
	}
	defer os.RemoveAll(dir)

	items := storageItemsForPairs(pairs)
	digest := pairstore.DigestFunc(storageRef, "storage", seed)

	s := newStorageStore()
	storageIngest(s, items, digest)
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
	st := r.Stats()
	res.DiskBytes = st.DiskBytes
	res.BytesPerPair = st.BytesPerPair
	res.IndexResidentBytes = st.IndexResidentBytes
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
	if served != res.Pairs {
		return StorageResult{}, fmt.Errorf("storage: the plan served %d of %d resident pairs", served, res.Pairs)
	}
	res.PlanHash = fmt.Sprintf("%x", h.Sum(nil))
	after := r.Stats()
	res.BloomHitRate = after.BloomHitRate
	res.BlockDecodes = after.BlockDecodes - st.BlockDecodes
	return res, nil
}
