// Package benchfmt defines the BENCH_<run>.json format shared by the
// rocketbench harness (writer) and the benchgate CI gate (reader): one
// record per experiment capturing wall time, allocations, event
// throughput, and a SHA-256 fingerprint of the rendered output, so
// performance and bit-exact determinism are tracked across commits.
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
	// NsPerOp is the wall-clock nanoseconds of one full experiment run.
	NsPerOp int64 `json:"ns_per_op"`
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
	// EventsPerSec is the dispatch throughput: Events / wall seconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// OutputSHA256 fingerprints the rendered experiment output, so runs
	// can be compared for bit-identical results across engine changes.
	OutputSHA256 string `json:"output_sha256"`
}

// ShardPoint is one engine width of the shard-scaling trajectory: the
// fleet benchmark (BenchmarkShardScaling's workload) measured at a fixed
// shard count. StateHash is the run's deterministic digest — identical
// across widths by the engine's invariance guarantee, which the gate
// enforces; EventsPerSec is wall-clock and therefore tracked, not gated.
type ShardPoint struct {
	Shards       int     `json:"shards"`
	NsPerOp      int64   `json:"ns_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	StateHash    string  `json:"state_hash"`
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
	// PlanNsPerOp is the wall time of planning the 10% delta (probing
	// the full base region against the snapshot). Wall-clock, so
	// tracked with a drift warning rather than gated hard.
	PlanNsPerOp int64 `json:"plan_ns_per_op"`
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
	// GoMaxProcs records the OS-thread parallelism available when the
	// shard trajectory was measured; a trajectory recorded at GOMAXPROCS=1
	// cannot show wall-clock speedup no matter how well the engine scales,
	// so readers must interpret EventsPerSec relative to this.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// ShardTrajectory is the fleet benchmark measured at widths 1, 2, 4, 8
	// (absent from reports predating the sharded engine).
	ShardTrajectory []ShardPoint `json:"shard_trajectory,omitempty"`
	// StorageTrajectory is the pairstore scaling sweep (absent from
	// reports predating the columnar store).
	StorageTrajectory []StoragePoint `json:"storage_trajectory,omitempty"`
}

// ShardSpeedup returns the trajectory's events/sec at its widest point
// relative to width 1, or 0 when the trajectory is absent or degenerate.
func (r Report) ShardSpeedup() float64 {
	var base, widest ShardPoint
	for _, p := range r.ShardTrajectory {
		if p.Shards == 1 {
			base = p
		}
		if p.Shards > widest.Shards {
			widest = p
		}
	}
	if base.EventsPerSec <= 0 || widest.Shards <= 1 {
		return 0
	}
	return widest.EventsPerSec / base.EventsPerSec
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
