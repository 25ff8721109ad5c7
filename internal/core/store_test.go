package core

import (
	"fmt"
	"testing"

	"rocket/internal/obs"
	"rocket/internal/pairstore"
)

// storeDigest is the digest function the store tests share.
func storeDigest() func(int) pairstore.Digest {
	return pairstore.DigestFunc("test-store", "test", 1)
}

// warmStore runs a full n-item computation that emits into a fresh
// store and returns the store plus the run's metrics.
func warmStore(t *testing.T, n, nodes int) (*pairstore.Store, *Metrics) {
	t.Helper()
	store := pairstore.New()
	batch := pairstore.NewBatch()
	m, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, nodes),
		Seed:       1,
		StoreBatch: batch,
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Merge(batch)
	return store, m
}

func TestStoreEmissionCollectsEveryPair(t *testing.T) {
	store, m := warmStore(t, 12, 1)
	want := int64(12 * 11 / 2)
	if int64(store.Len()) != want {
		t.Fatalf("store holds %d entries, want %d", store.Len(), want)
	}
	if m.StorePuts != uint64(want) || m.StoreHits != 0 {
		t.Fatalf("puts %d hits %d, want %d/0", m.StorePuts, m.StoreHits, want)
	}
	if m.StoreWriteBytes == 0 {
		t.Fatal("batch flush charged no write bytes")
	}
}

func TestDeltaRunComputesOnlyNewPairs(t *testing.T) {
	const base, n = 12, 16
	store, _ := warmStore(t, base, 1)
	batch := pairstore.NewBatch()
	m, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, 1),
		Seed:       1,
		BaseItems:  base,
		Store:      store.Snapshot(),
		StoreBatch: batch,
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := uint64(pairstore.DeltaPairs(n, base))
	wantHits := uint64(base * (base - 1) / 2)
	if m.Pairs != wantDelta {
		t.Fatalf("delta run computed %d pairs, want %d", m.Pairs, wantDelta)
	}
	if m.StoreHits != wantHits || m.StoreMisses != 0 {
		t.Fatalf("hits %d misses %d, want %d/0", m.StoreHits, m.StoreMisses, wantHits)
	}
	if m.Pairs+m.StoreHits != uint64(pairs16(n)) {
		t.Fatalf("coverage %d+%d != %d", m.Pairs, m.StoreHits, pairs16(n))
	}
	if m.StoreReadBytes == 0 {
		t.Fatal("store hits charged no read bytes")
	}
	// Only the new results are emitted.
	if m.StorePuts != wantDelta {
		t.Fatalf("emitted %d, want %d", m.StorePuts, wantDelta)
	}
	// The union store now covers the grown dataset.
	store.Merge(batch)
	if int64(store.Len()) != pairs16(n) {
		t.Fatalf("merged store holds %d, want %d", store.Len(), pairs16(n))
	}
}

func pairs16(n int) int64 { return int64(n) * int64(n-1) / 2 }

func TestDeltaRunIsFasterThanFull(t *testing.T) {
	const base, n = 40, 44 // 10% growth
	store, _ := warmStore(t, base, 1)
	full, err := Run(Config{
		App:     defaultTestApp(n),
		Cluster: newCluster(t, 1),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, 1),
		Seed:       1,
		BaseItems:  base,
		Store:      store.Snapshot(),
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Runtime >= full.Runtime {
		t.Fatalf("delta runtime %v not below full %v", delta.Runtime, full.Runtime)
	}
}

func TestStoreMissesAreRecomputed(t *testing.T) {
	const base, n = 10, 12
	store, _ := warmStore(t, base, 1)
	// Remove two base pairs by rebuilding a store without them: the
	// planner must detect the absences and recompute exactly those.
	d := storeDigest()
	partial := pairstore.New()
	dropped := 0
	for i := 0; i < base; i++ {
		for j := i + 1; j < base; j++ {
			if e, ok := store.Get(pairstore.PairKey(d, i, j)); ok {
				if (i == 0 && j == 1) || (i == 2 && j == 5) {
					dropped++
					continue
				}
				partial.Put(e)
			}
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped %d base entries, want 2", dropped)
	}
	m, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, 1),
		Seed:       1,
		BaseItems:  base,
		Store:      partial.Snapshot(),
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := uint64(pairstore.DeltaPairs(n, base)) + 2
	if m.Pairs != wantDelta || m.StoreMisses != 2 {
		t.Fatalf("pairs %d misses %d, want %d/2", m.Pairs, m.StoreMisses, wantDelta)
	}
}

func TestTrustedBaseWithoutStoreMatchesWarmStore(t *testing.T) {
	// The storeless-replay argument: a delta run with a warm store
	// holding exactly the base pairs is bit-identical to a storeless
	// run that trusts BaseItems.
	const base, n = 12, 15
	store, _ := warmStore(t, base, 2)
	run := func(snap *pairstore.Snapshot) *Metrics {
		cfg := Config{
			App:       defaultTestApp(n),
			Cluster:   newCluster(t, 2),
			Seed:      3,
			BaseItems: base,
		}
		if snap != nil {
			cfg.Store = snap
			cfg.ItemDigest = storeDigest()
		}
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	warm, trusted := run(store.Snapshot()), run(nil)
	if warm.Runtime != trusted.Runtime || warm.Pairs != trusted.Pairs ||
		warm.StoreHits != trusted.StoreHits || warm.Events != trusted.Events {
		t.Fatalf("warm %v/%d/%d/%d vs trusted %v/%d/%d/%d",
			warm.Runtime, warm.Pairs, warm.StoreHits, warm.Events,
			trusted.Runtime, trusted.Pairs, trusted.StoreHits, trusted.Events)
	}
}

func TestEmptyStoreLeavesRunByteIdentical(t *testing.T) {
	// The golden-trace invariant: attaching an empty store (no resident
	// pairs, no batch) must not perturb the run at all.
	run := func(withStore bool) (*Metrics, obs.Snapshot) {
		rec := obs.New(1, 0)
		cfg := Config{
			App:     defaultTestApp(14),
			Cluster: newCluster(t, 2),
			Seed:    7,
			Spans:   rec,
		}
		if withStore {
			cfg.Store = pairstore.New().Snapshot()
			cfg.ItemDigest = storeDigest()
		}
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, rec.Snapshot()
	}
	a, sa := run(false)
	b, sb := run(true)
	if a.Runtime != b.Runtime || a.Events != b.Events || a.Pairs != b.Pairs {
		t.Fatalf("empty store perturbed the run: %v/%d/%d vs %v/%d/%d",
			a.Runtime, a.Events, a.Pairs, b.Runtime, b.Events, b.Pairs)
	}
	ta, tb := sa.Spans, sb.Spans
	if len(ta) == 0 || len(ta) != len(tb) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("trace task %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

func TestFullyResidentRunComputesNothing(t *testing.T) {
	const n = 10
	store, _ := warmStore(t, n, 1)
	m, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, 1),
		Seed:       1,
		BaseItems:  n,
		Store:      store.Snapshot(),
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs != 0 || m.StoreHits != uint64(pairs16(n)) {
		t.Fatalf("pairs %d hits %d, want 0/%d", m.Pairs, m.StoreHits, pairs16(n))
	}
	if m.Runtime <= 0 {
		t.Fatal("fully resident run charged no store read time")
	}
	if m.Loads != 0 {
		t.Fatalf("fully resident run loaded %d items", m.Loads)
	}
}

func TestStoreTraceRecordsChargedIO(t *testing.T) {
	const base, n = 10, 12
	store, _ := warmStore(t, base, 1)
	m, err := Run(Config{
		App:        defaultTestApp(n),
		Cluster:    newCluster(t, 1),
		Seed:       1,
		BaseItems:  base,
		Store:      store.Snapshot(),
		StoreBatch: pairstore.NewBatch(),
		ItemDigest: storeDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Phases.Count(PhaseStoreRead) != 1 {
		t.Fatal("store read not traced")
	}
	if m.Phases.Count(PhaseStoreWrite) != 1 {
		t.Fatal("store write not traced")
	}
	if m.Phases.BusyPhase(PhaseStoreRead) <= 0 {
		t.Fatal("store read busy time not charged")
	}
}

func TestStoreConfigValidation(t *testing.T) {
	base := Config{App: defaultTestApp(8), Cluster: newCluster(t, 1)}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"snapshot without digest", func(c *Config) { c.Store = pairstore.New().Snapshot() }},
		{"batch without digest", func(c *Config) { c.StoreBatch = pairstore.NewBatch() }},
		{"negative base", func(c *Config) { c.BaseItems = -1 }},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: Run accepted an invalid config", c.name)
		}
	}
}

func TestDeltaDeterminism(t *testing.T) {
	const base, n = 12, 16
	store, _ := warmStore(t, base, 2)
	run := func() string {
		m, err := Run(Config{
			App:        defaultTestApp(n),
			Cluster:    newCluster(t, 2),
			Seed:       5,
			BaseItems:  base,
			Store:      store.Snapshot(),
			StoreBatch: pairstore.NewBatch(),
			ItemDigest: storeDigest(),
			DistCache:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v/%d/%d/%d/%d", m.Runtime, m.Pairs, m.StoreHits, m.Events, m.StoreWriteBytes)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("delta runs diverge: %s vs %s", a, b)
	}
}
