package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/pairstore"
	"rocket/internal/stats"
)

// The dataset grows through five versions to ≈2 000 items / 2.0 M pairs;
// storeNext is the version the delta is planned for.
var (
	storeVersions      = []int{1200, 1400, 1600, 1800, 2000}
	storeNext          = 2200
	storeSmokeVersions = []int{60, 70, 80, 90, 100}
	storeSmokeNext     = 110
	storeWarmVersions  = []int{240, 280, 320, 360, 400}
	storeWarmNext      = 440
)

const (
	// storeAutoSeal bounds the memtable so ingestion goes through
	// auto-seal and tiered compaction, as MeasureStorage does.
	storeAutoSeal = 1 << 18
	// probeChunk is core.buildStorePlan's HasMany chunk.
	probeChunk = 4096
	// A resident point Get decodes a block (≈0.25 ms), an absent one
	// stops at the bloom filter, so the counts differ.
	storeGetHits   = 2000
	storeGetMisses = 20000
	// storeAbsent is how many never-ingested items supply absent keys.
	storeAbsent = 64
	// deltaNodes is the platform of the delta run.
	deltaNodes = 16
)

type storeInst struct {
	versions []int
	next     int
	digests  []pairstore.Digest // per item, up to next+storeAbsent
	dir      string
	seed     uint64
}

func (s *storeInst) base() int { return s.versions[len(s.versions)-1] }

func (s *storeInst) key(i, j int) pairstore.Key {
	return pairstore.Key{A: s.digests[i], B: s.digests[j]}
}

func newStoreInst(seed uint64, outDir string, versions []int, next int) (*storeInst, error) {
	s := &storeInst{versions: versions, next: next, seed: seed}
	s.digests = make([]pairstore.Digest, next+storeAbsent)
	for i := range s.digests {
		s.digests[i] = pairstore.DigestItem("bench-store", "store_delta", seed, i)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	return s, nil
}

func setupStoreDelta(c *config) (instance, error) {
	if c.smoke {
		return newStoreInst(c.seed, c.outDir, storeSmokeVersions, storeSmokeNext)
	}
	// The discarded warm-up: one whole cycle on a twenty-fifth of the pairs.
	warm, err := newStoreInst(c.seed, c.outDir, storeWarmVersions, storeWarmNext)
	if err != nil {
		return nil, err
	}
	defer warm.close()
	if _, err := warm.cycle(newResult("warm-up", provenance{}), nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return newStoreInst(c.seed, c.outDir, storeVersions, storeNext)
}

func (s *storeInst) close() { os.RemoveAll(s.dir) }

// storeCycle is what one ingest → save → load → plan → gets cycle took.
type storeCycle struct {
	pairs                     float64 // pairs ingested = base pairs planned
	putNs, putPairs           float64
	mergeNs, mergePairs       float64
	sealMs                    float64
	ingestS                   float64
	saveS, loadS              float64
	snapshotUs                float64
	planS, hasManyS           float64
	getHitNs, getMissNs       float64
	cpuS                      float64
	planHash                  string
	stats                     pairstore.Stats // of the reloaded store, before the plan
	bloomNeg, bloomFP, probes float64         // over the plan
	loaded                    *pairstore.Store
	snap                      *pairstore.Snapshot
}

// plan resolves the whole base region against snap exactly as
// core.buildStorePlan does, and returns the wall time, the time inside
// HasMany, how many pairs were resident and a hash of the bitmap.
func (s *storeInst) plan(snap *pairstore.Snapshot) (wall, inHasMany time.Duration, served int, hash string) {
	keys := make([]pairstore.Key, 0, probeChunk)
	out := make([]bool, probeChunk)
	bits := make([]byte, probeChunk)
	h := sha256.New()
	flush := func() {
		t := time.Now()
		snap.HasMany(keys, out)
		inHasMany += time.Since(t)
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
	start := time.Now()
	n := s.base()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			keys = append(keys, s.key(i, j))
			if len(keys) == probeChunk {
				flush()
			}
		}
	}
	if len(keys) > 0 {
		flush()
	}
	return time.Since(start), inHasMany, served, hex.EncodeToString(h.Sum(nil))
}

// cycle runs one timed iteration and checks it.
func (s *storeInst) cycle(r *result, tr *tracer, op int) (*storeCycle, error) {
	cy := &storeCycle{}
	cpu0 := cpuSeconds()
	root := tr.begin("iteration", "loadgen", -1, op)
	defer tr.end(root)

	st := pairstore.New()
	st.SetAutoSealThreshold(storeAutoSeal)
	prev := 0
	ingestStart := time.Now()
	for v, n := range s.versions {
		var added float64
		if v%2 == 0 {
			sp := tr.begin(fmt.Sprintf("Put v%d", n), "pairstore", root, op)
			t := time.Now()
			for j := prev; j < n; j++ {
				for i := 0; i < j; i++ {
					st.Put(pairstore.Entry{Key: s.key(i, j), Version: n})
					added++
				}
			}
			cy.putNs += float64(time.Since(t).Nanoseconds())
			cy.putPairs += added
			tr.end(sp)
		} else {
			sp := tr.begin(fmt.Sprintf("Batch+Merge v%d", n), "pairstore", root, op)
			t := time.Now()
			b := pairstore.NewBatch()
			for j := prev; j < n; j++ {
				for i := 0; i < j; i++ {
					b.Add(pairstore.Entry{Key: s.key(i, j), Version: n})
					added++
				}
			}
			merged := st.Merge(b)
			cy.mergeNs += float64(time.Since(t).Nanoseconds())
			cy.mergePairs += added
			tr.end(sp)
			r.check(float64(merged) == added, "version %d: Merge took %d of %.0f new pairs", n, merged, added)
		}
		sp := tr.begin(fmt.Sprintf("Seal v%d", n), "pairstore", root, op)
		t := time.Now()
		st.Seal()
		cy.sealMs += float64(time.Since(t).Nanoseconds()) / 1e6
		tr.end(sp)
		cy.pairs += added
		prev = n
	}
	cy.ingestS = time.Since(ingestStart).Seconds()
	r.check(float64(st.Len()) == cy.pairs, "store holds %d pairs after ingest, want %.0f", st.Len(), cy.pairs)

	path := filepath.Join(s.dir, fmt.Sprintf("store-%d.json", op))
	sp := tr.begin("Save", "pairstore", root, op)
	t := time.Now()
	err := st.Save(path)
	cy.saveS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("Load", "pairstore", root, op)
	t = time.Now()
	cy.loaded, err = pairstore.Load(path)
	cy.loadS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cy.stats = cy.loaded.Stats()
	r.check(float64(cy.stats.Entries) == cy.pairs, "reloaded store holds %d pairs, want %.0f", cy.stats.Entries, cy.pairs)

	sp = tr.begin("Snapshot", "pairstore", root, op)
	const snapshots = 1000
	t = time.Now()
	for i := 0; i < snapshots; i++ {
		cy.snap = cy.loaded.Snapshot()
	}
	cy.snapshotUs = float64(time.Since(t).Nanoseconds()) / 1e3 / snapshots
	tr.end(sp)

	sp = tr.begin("plan (HasMany walk)", "pairstore", root, op)
	wall, inHasMany, served, hash := s.plan(cy.snap)
	tr.end(sp)
	cy.planS, cy.hasManyS, cy.planHash = wall.Seconds(), inHasMany.Seconds(), hash
	r.check(float64(served) == cy.pairs, "plan found %d of %.0f base pairs resident", served, cy.pairs)
	after := cy.loaded.Stats()
	cy.probes = float64(after.BloomProbes - cy.stats.BloomProbes)
	cy.bloomNeg = float64(after.BloomNegatives - cy.stats.BloomNegatives)
	cy.bloomFP = float64(after.BloomFalsePositives - cy.stats.BloomFalsePositives)

	sp = tr.begin("point Gets", "pairstore", root, op)
	rng := stats.NewRNG(s.seed ^ 0x67657473)
	n := s.base()
	hits, misses := storeGetHits, storeGetMisses
	if n < 1000 {
		hits, misses = 200, 200
	}
	found := 0
	t = time.Now()
	for k := 0; k < hits; k++ {
		j := 1 + rng.Intn(n-1)
		if _, ok := cy.loaded.Get(s.key(rng.Intn(j), j)); ok {
			found++
		}
	}
	cy.getHitNs = float64(time.Since(t).Nanoseconds()) / float64(hits)
	r.check(found == hits, "%d of %d Gets of resident keys hit", found, hits)
	found = 0
	t = time.Now()
	for k := 0; k < misses; k++ {
		if _, ok := cy.loaded.Get(s.key(rng.Intn(n), s.next+rng.Intn(storeAbsent))); ok {
			found++
		}
	}
	cy.getMissNs = float64(time.Since(t).Nanoseconds()) / float64(misses)
	r.check(found == 0, "%d of %d Gets of absent keys hit", found, misses)
	tr.end(sp)

	cy.cpuS = cpuSeconds() - cpu0
	return cy, nil
}

func (s *storeInst) measure(c *config, r *result) error {
	seconds, min := c.seconds, 2
	if c.traced() || c.smoke {
		seconds, min = 0, 1
	}
	var plain []*storeCycle
	_, err := iterate(seconds, min, func(i int) error {
		cy, err := s.cycle(r, nil, i)
		if err != nil {
			return err
		}
		if len(plain) > 0 {
			r.check(cy.planHash == plain[0].planHash && cy.stats.DiskBytes == plain[0].stats.DiskBytes,
				"iteration %d output differs from iteration 0", i)
		}
		plain = append(plain, cy)
		return nil
	})
	if err != nil {
		return err
	}
	r.Counts["iterations"] = len(plain)
	first := plain[0]
	r.Counts["items"] = s.base()
	r.Counts["pairs"] = int(first.pairs)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s %d %d %d %d", first.planHash,
		first.stats.Entries, first.stats.Segments, first.stats.Levels, first.stats.DiskBytes)))
	r.Digest = hex.EncodeToString(sum[:])

	sample := func(f func(*storeCycle) float64) []float64 {
		out := make([]float64, len(plain))
		for i, cy := range plain {
			out[i] = f(cy)
		}
		return out
	}
	r.timing("ingest_pairs_per_s", sample(func(cy *storeCycle) float64 { return cy.pairs / cy.ingestS }))
	r.timing("plan_ns_per_pair", sample(func(cy *storeCycle) float64 { return 1e9 * cy.planS / cy.pairs }))
	r.timing("reload_s", sample(func(cy *storeCycle) float64 { return cy.saveS + cy.loadS }))
	r.set("bytes_per_pair", first.stats.BytesPerPair)
	r.set("work_per_s", r.Values["ingest_pairs_per_s"])
	r.timing("op_ms", sample(func(cy *storeCycle) float64 { return 1e3 * cy.planS }))
	r.timing("cpu_us_per_work", sample(func(cy *storeCycle) float64 { return 1e6 * cy.cpuS / cy.pairs }))

	s.layerMetrics(r, plain[len(plain)-1])
	if !c.traced() {
		return nil
	}

	var cy *storeCycle
	_, err = profiled(r, func() (err error) {
		cy, err = s.cycle(r, c.tr, len(plain))
		return err
	})
	if err != nil {
		return err
	}
	r.check(cy.planHash == first.planHash, "traced iteration output differs from the untraced run")
	r.set("trace_overhead_frac", overhead(r.Values["ingest_pairs_per_s"], cy.pairs/cy.ingestS, true))
	s.layerMetrics(r, cy)
	if c.smoke {
		return nil
	}
	return s.deltaAndConcurrent(c, r, cy, len(plain))
}

// layerMetrics files one cycle's pairstore figures.
func (s *storeInst) layerMetrics(r *result, cy *storeCycle) {
	r.set("pairstore.put_ns_per_pair", ratio(cy.putNs, cy.putPairs))
	r.set("pairstore.merge_ns_per_pair", ratio(cy.mergeNs, cy.mergePairs))
	r.set("pairstore.seal_ms", cy.sealMs)
	r.set("pairstore.save_ms", 1e3*cy.saveS)
	r.set("pairstore.load_ms", 1e3*cy.loadS)
	r.set("pairstore.snapshot_us", cy.snapshotUs)
	r.set("pairstore.hasmany_ns_per_key", 1e9*cy.hasManyS/cy.pairs)
	r.set("pairstore.get_hit_ns", cy.getHitNs)
	r.set("pairstore.get_miss_ns", cy.getMissNs)
	r.set("pairstore.bloom_negative_frac", ratio(cy.bloomNeg, cy.probes))
	r.set("pairstore.bloom_false_positive_frac", ratio(cy.bloomFP, cy.probes))
	r.set("pairstore.index_bytes_per_pair", ratio(float64(cy.stats.IndexResidentBytes), float64(cy.stats.Entries)))
	r.set("pairstore.segments", float64(cy.stats.Segments))
	r.set("pairstore.levels", float64(cy.stats.Levels))
}

// deltaAndConcurrent finishes the traced iteration the way an
// incremental user would: a delta job over the snapshot computes only
// the next version's new pairs, its batch is merged and sealed while a
// second plan reads beside the writes, and a full Compact closes.
func (s *storeInst) deltaAndConcurrent(c *config, r *result, cy *storeCycle, op int) error {
	root := c.tr.begin("delta and concurrent plan", "loadgen", -1, op+1)
	defer c.tr.end(root)

	app := forensics.New(forensics.Params{N: s.next, Seed: s.seed})
	batch := rocket.NewPairBatch()
	runner := rocket.New(
		rocket.WithHomogeneous(deltaNodes, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDistCache(true), rocket.WithSeed(s.seed),
		rocket.WithStoreSnapshot(cy.snap), rocket.WithBaseItems(s.base()),
		rocket.WithItemDigest(func(item int) rocket.PairDigest { return s.digests[item] }),
		rocket.WithStoreBatch(batch),
	)
	sp := c.tr.begin("rocket.Runner.Run (delta)", "core", root, op+1)
	start := time.Now()
	m, err := runner.Run(app)
	r.set("core.delta_run_s", time.Since(start).Seconds())
	c.tr.end(sp)
	if err != nil {
		return err
	}
	all := uint64(s.next) * uint64(s.next-1) / 2
	r.check(m.Pairs+m.StoreHits == all, "delta job covered %d + %d pairs, want %d", m.Pairs, m.StoreHits, all)
	r.check(float64(m.StoreHits) == cy.pairs && m.StoreMisses == 0,
		"delta job was served %d base pairs (%d missing), want %.0f", m.StoreHits, m.StoreMisses, cy.pairs)
	r.check(uint64(batch.Len()) == m.Pairs, "delta job emitted %d results for %d computed pairs", batch.Len(), m.Pairs)
	r.set("core.store_hit_frac", ratio(float64(m.StoreHits), float64(m.StoreHits+m.StoreMisses)))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := c.tr.begin("Merge+Seal beside the plan", "pairstore", root, op+1)
		cy.loaded.Merge(batch)
		cy.loaded.Seal()
		c.tr.end(w)
	}()
	sp = c.tr.begin("plan beside Merge+Seal", "pairstore", root, op+1)
	wall, _, served, hash := s.plan(cy.snap)
	c.tr.end(sp)
	wg.Wait()
	r.check(float64(served) == cy.pairs && hash == cy.planHash,
		"plan beside writes found %d of %.0f base pairs, or another bitmap", served, cy.pairs)
	r.check(uint64(cy.loaded.Len()) == all, "store holds %d pairs after the delta merge, want %d", cy.loaded.Len(), all)
	r.set("pairstore.concurrent_plan_slowdown", ratio(wall.Seconds(), cy.planS))

	sp = c.tr.begin("Compact", "pairstore", root, op+1)
	start = time.Now()
	cy.loaded.Compact()
	r.set("pairstore.compact_ms", float64(time.Since(start).Nanoseconds())/1e6)
	c.tr.end(sp)
	return nil
}
