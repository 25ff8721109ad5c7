// Incremental: the pair store's warm-start flow against the public
// rocket API. A forensics corpus is computed once into a persistent
// pair store; the corpus then grows append-only (new images arrive),
// and the second run serves every already-computed pair from the store,
// computing only the new-vs-all delta — the k·n + k(k-1)/2 pairs that
// touch new items.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rocket"
	"rocket/internal/apps/forensics"
)

const (
	baseItems  = 24 // the corpus as first ingested
	growth     = 4  // images appended later
	seed       = 7  // the dataset's content identity; fixed across runs
	storeRef   = "corpus"
	totalItems = baseItems + growth
)

// corpus builds the dataset at a given size. Same seed, more items:
// item i is identical in every version, which is what lets the store's
// content-addressed keys hit after the corpus grows.
func corpus(n int) rocket.Application {
	return forensics.New(forensics.Params{N: n, Seed: seed})
}

func run(app rocket.Application, opts ...rocket.Option) *rocket.Metrics {
	base := []rocket.Option{
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithSeed(1),
	}
	m, err := rocket.New(append(base, opts...)...).Run(app)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	digest := rocket.PairDigestFunc(storeRef, "forensics", seed)

	// Day 1: ingest the corpus cold, emitting every result into a fresh
	// store, then persist it.
	store := rocket.NewPairStore()
	batch := rocket.NewPairBatch()
	cold := run(corpus(baseItems),
		rocket.WithStoreBatch(batch),
		rocket.WithItemDigest(digest),
	)
	store.Merge(batch)
	dir, err := os.MkdirTemp("", "rocket-incremental")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.json")
	if err := store.Save(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 1: computed %d pairs over %d items in %v; %d results persisted\n",
		cold.Pairs, baseItems, cold.Runtime, store.Len())

	// Day 2: the corpus has grown. Reload the store and run the delta:
	// the base region is served from the store, only new-vs-all pairs
	// are computed.
	reloaded, err := rocket.LoadPairStore(path)
	if err != nil {
		log.Fatal(err)
	}
	batch = rocket.NewPairBatch()
	warm := run(corpus(totalItems),
		rocket.WithBaseItems(baseItems),
		rocket.WithStoreSnapshot(reloaded.Snapshot()),
		rocket.WithStoreBatch(batch),
		rocket.WithItemDigest(digest),
	)
	reloaded.Merge(batch)

	fmt.Printf("day 2: +%d items -> computed %d new pairs (%d served from the store) in %v\n",
		growth, warm.Pairs, warm.StoreHits, warm.Runtime)
	if want := rocket.DeltaPairs(totalItems, baseItems); int64(warm.Pairs) != want {
		log.Fatalf("computed %d pairs, want the minimal delta %d", warm.Pairs, want)
	}

	// What a store-less deployment would have paid: the full recompute.
	full := run(corpus(totalItems))
	fmt.Printf("full recompute of %d items: %d pairs in %v -> warm start is %.1fx faster\n",
		totalItems, full.Pairs, full.Runtime, float64(full.Runtime)/float64(warm.Runtime))
	fmt.Printf("store now holds %d results (%d new appended)\n", reloaded.Len(), warm.StorePuts)
}
