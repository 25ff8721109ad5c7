package experiments

import (
	"fmt"

	"rocket/internal/apps/forensics"
	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/pairstore"
	"rocket/internal/report"
)

// incrementalNodes is the platform size of the incremental sweep.
const incrementalNodes = 4

// incrementalRef is the store namespace the experiment's dataset
// lineage uses.
const incrementalRef = "incremental"

// incremental measures the pair store's warm-start payoff: the
// append-only growth scenario the store exists for. A forensics corpus
// of n items is computed once into a fresh store (the base run), then
// grown by a sweep of append ratios. For each grown size the
// experiment runs the full recomputation (cold, what a store-less
// deployment must do, emitting into a store as the warm-start pipeline
// would) and the delta job (warm: the base region is served from the
// store, only the new-vs-all pair set is computed), and reports the
// pair accounting and the speedup.
//
// Expected shape: the delta job computes exactly k·n + k(k-1)/2 pairs
// for k appended items, pair coverage (computed + served) always
// equals the full set, and — because comparisons dominate this
// workload — the speedup tracks the pair ratio: ≥5x at 10% growth
// (delta is ~17% of the full set), falling toward ~2x at 50% growth.
func incremental(o Options) (string, error) {
	o = o.normalized()
	s := ForensicsSetup(o)
	n0 := s.App.NumItems()
	digest := pairstore.DigestFunc(incrementalRef, s.App.Name(), o.Seed)

	// grown builds the same dataset lineage at a larger size: same seed,
	// same per-item scaling, more items — item i is identical in every
	// version, which is what makes the store's content addressing hit.
	grown := func(n int) core.Application {
		return scaledApp{
			Application: forensics.New(forensics.Params{N: n, Seed: o.Seed}),
			Div:         int64(o.Scale),
		}
	}

	platform := func() (*cluster.Cluster, error) { return das5(incrementalNodes) }
	run := func(app core.Application, mutate func(*core.Config)) (*core.Metrics, error) {
		cl, err := platform()
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			App:         app,
			Cluster:     cl,
			DeviceSlots: s.DevSlots,
			HostSlots:   s.HostSlots,
			Seed:        o.Seed,
			DistCache:   true,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return core.Run(cfg)
	}

	// Base run: compute the initial corpus into a fresh store.
	store := pairstore.New()
	batch := pairstore.NewBatch()
	base, err := run(grown(n0), func(cfg *core.Config) {
		cfg.StoreBatch = batch
		cfg.ItemDigest = digest
	})
	if err != nil {
		return "", fmt.Errorf("base run: %w", err)
	}
	store.Merge(batch)

	t := report.NewTable(
		fmt.Sprintf("Incremental: forensics corpus growth on %d nodes, base n=%d (%d pairs in store, computed in %.2f s)",
			incrementalNodes, n0, store.Len(), base.Runtime.Seconds()),
		"append", "n", "full pairs", "delta pairs", "served", "full s", "delta s", "speedup")
	for _, pct := range []int{5, 10, 25, 50} {
		k := n0 * pct / 100
		if k < 1 {
			k = 1
		}
		n1 := n0 + k

		full, err := run(grown(n1), func(cfg *core.Config) {
			cfg.StoreBatch = pairstore.NewBatch()
			cfg.ItemDigest = digest
		})
		if err != nil {
			return "", fmt.Errorf("full n=%d: %w", n1, err)
		}
		delta, err := run(grown(n1), func(cfg *core.Config) {
			cfg.BaseItems = n0
			cfg.Store = store.Snapshot()
			cfg.StoreBatch = pairstore.NewBatch()
			cfg.ItemDigest = digest
		})
		if err != nil {
			return "", fmt.Errorf("delta n=%d: %w", n1, err)
		}
		if got, want := int64(delta.Pairs), pairstore.DeltaPairs(n1, n0); got != want {
			return "", fmt.Errorf("delta n=%d computed %d pairs, want %d", n1, got, want)
		}
		if int64(delta.Pairs+delta.StoreHits) != pairstore.DeltaPairs(n1, 0) {
			return "", fmt.Errorf("delta n=%d covers %d pairs, want %d",
				n1, delta.Pairs+delta.StoreHits, pairstore.DeltaPairs(n1, 0))
		}
		t.AddRow(
			fmt.Sprintf("%d%%", pct),
			n1,
			full.Pairs,
			delta.Pairs,
			delta.StoreHits,
			full.Runtime.Seconds(),
			delta.Runtime.Seconds(),
			fmt.Sprintf("%.2fx", float64(full.Runtime)/float64(delta.Runtime)),
		)
	}
	return t.String(), nil
}
