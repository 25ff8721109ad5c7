// Package benchfmt defines the BENCH_<run>.json format shared by the
// rocketbench harness (writer) and the benchgate CI gate (reader): one
// record per experiment capturing allocations, event counts, and a
// SHA-256 fingerprint of the rendered output, so counts that repeat and
// bit-exact determinism are tracked across commits. Every field is a
// count or a hash; host time is measured by bench/ alone. Reports written
// before the time columns went still decode: JSON ignores the unknown
// ns_per_op, events_per_sec and plan_ns_per_op fields.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// ExpResult is one experiment's benchmark record.
type ExpResult struct {
	ID    string `json:"id"`
	Paper string `json:"paper"`
	// AllocsPerOp is the number of heap allocations during the run.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	// Events is the number of simulation events dispatched by the run
	// (summed over all inner environments).
	Events uint64 `json:"events"`
	// HeapPushes is how many of the run's events were ordered through an
	// engine's heap; the rest were scheduled for the instant they were
	// pushed at and queued in its now-lane. Exact at a seed, like Events
	// (absent from reports predating the lane).
	HeapPushes uint64 `json:"heap_pushes,omitempty"`
	// OutputSHA256 fingerprints the rendered experiment output, so runs
	// can be compared for bit-identical results across engine changes.
	OutputSHA256 string `json:"output_sha256"`
}

// StoragePoint is one dataset size of the pairstore scaling
// trajectory (BenchmarkPairstoreScale's workload): an all-pairs store
// built to Pairs entries, sealed, compacted, and persisted, then asked
// to plan a 10% item delta against a fresh snapshot.
type StoragePoint struct {
	// Items and Pairs describe the dataset: Pairs = Items·(Items−1)/2.
	Items int   `json:"items"`
	Pairs int64 `json:"pairs"`
	// BytesPerPair is the persisted columnar size per pair — the
	// storage-efficiency capability the gate enforces (≤ 8 at 10^6
	// pairs, and within 10% of baseline).
	BytesPerPair float64 `json:"bytes_per_pair"`
	DiskBytes    int64   `json:"disk_bytes"`
	// IndexResidentBytes is the in-memory probe-index footprint (fences,
	// dictionaries, bloom filters) the plan ran against — the evidence
	// that planning does not need a resident per-pair index.
	IndexResidentBytes int64 `json:"index_resident_bytes"`
	// PlanHash fingerprints the planned residency bitmap; it depends
	// only on (seed, items, base), so any drift is a determinism bug.
	PlanHash string `json:"plan_hash"`
	// BloomHitRate is the share of segment probes the bloom filters
	// answered without a block decode during planning.
	BloomHitRate float64 `json:"bloom_hit_rate"`
	// Blocks is the number of segment blocks the plan ran against and
	// BlockDecodes how many block inflations the plan caused. Both are
	// deterministic, and a plan whose blocks fit the store's block cache
	// decodes each at most once — the gate holds it to that (absent from
	// reports predating the block cache).
	Blocks       int    `json:"blocks,omitempty"`
	BlockDecodes uint64 `json:"block_decodes,omitempty"`
	// IngestBytesPerPair and IngestAllocsPerPair are the heap bytes and
	// objects ingesting the store allocated per pair. Deterministic to
	// within the runtime's own bookkeeping, so the gate holds them like
	// allocs_per_op (absent from reports predating PR 25).
	IngestBytesPerPair  float64 `json:"ingest_bytes_per_pair,omitempty"`
	IngestAllocsPerPair float64 `json:"ingest_allocs_per_pair,omitempty"`
}

// Report is the top-level BENCH_<run>.json document.
type Report struct {
	Run         string      `json:"run"`
	Scale       int         `json:"scale"`
	Seed        uint64      `json:"seed"`
	GoVersion   string      `json:"go_version"`
	UnixTime    int64       `json:"unix_time"`
	Experiments []ExpResult `json:"experiments"`
	// GoMaxProcs records the OS-thread parallelism of the run: the
	// scheduler runs its inner simulations on that many workers, which
	// moves allocation counts, so reports taken at different values are
	// not comparable.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// StorageTrajectory is the pairstore scaling sweep (absent from
	// reports predating the columnar store).
	StorageTrajectory []StoragePoint `json:"storage_trajectory,omitempty"`
}

// Read loads and decodes a BENCH_<run>.json file.
func Read(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Write encodes the report, indented with a trailing newline, to path.
func (r Report) Write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
