package core

import (
	"fmt"

	"rocket/internal/cluster"
	"rocket/internal/fault"
	"rocket/internal/obs"
	"rocket/internal/pairstore"
	"rocket/internal/sim"
)

// StealPolicy selects how an idle worker picks a victim.
type StealPolicy int

const (
	// StealHierarchical tries same-node workers first and only then a
	// random remote node (the paper's policy, §4.2).
	StealHierarchical StealPolicy = iota
	// StealFlat skips the node-local preference and always targets a
	// uniformly random node (including the local one). Used by the
	// ablation benchmarks.
	StealFlat
	// StealCacheAware extends the hierarchical policy with the paper's §7
	// future-work idea: the steal request carries a sample of the thief's
	// host-cache working set, and the victim hands over the queued task
	// whose items overlap it the most, enabling more reuse after a steal.
	StealCacheAware
)

// residentSampleMax bounds the working-set sample attached to cache-aware
// steal requests (and its wire size: 8 bytes per entry).
const residentSampleMax = 128

// Config configures one runtime execution.
type Config struct {
	// App is the application to run (required).
	App Application
	// Cluster is the platform to run on (required). A cluster must not be
	// reused across runs: it accumulates I/O and network accounting.
	Cluster *cluster.Cluster

	// DeviceSlots overrides the per-device cache capacity. 0 derives it
	// from device memory / ItemSize, capped at NumItems.
	DeviceSlots int
	// HostSlots overrides the per-node host cache capacity. 0 derives it
	// from NodeSpec.HostCacheBytes / ItemSize, capped at NumItems.
	// -1 disables the host cache entirely (Fig. 9's device-limit regime).
	HostSlots int

	// EvictRandom switches the device and host caches from LRU to random
	// eviction (ablation of the paper's §4.1.1 policy).
	EvictRandom bool

	// DistCache enables the third-level distributed cache.
	DistCache bool
	// Hops is the paper's h parameter (max candidates per lookup);
	// default 1, the value used for most of the evaluation.
	Hops int

	// ConcurrentJobs is the per-device limit on simultaneously submitted
	// jobs (the back-pressure knob of §4.2). 0 derives a safe default.
	ConcurrentJobs int
	// LeafPairs is the divide-and-conquer leaf threshold: regions with at
	// most this many pairs are processed directly. Default 16.
	LeafPairs int64

	// PairFilter, when non-nil, restricts the computation to pairs for
	// which it returns true — the paper's §7 "user-defined heuristics to
	// reduce the number of pairs" extension. It must be deterministic.
	PairFilter func(i, j int) bool

	// PrewarmHost pre-fills each node's host cache with the given
	// fraction [0, 1] of the items it would plausibly hold from a
	// previous run (item i lands on node i mod p) — the paper's §7
	// "persistent caches that reuse data from previous runs" extension.
	PrewarmHost float64

	// BaseItems declares the store-resident prefix of the data set: pairs
	// with both items below BaseItems were computed by a previous run
	// over the first BaseItems items and are served from the pair store
	// instead of recomputed — the incremental (delta) mode. The run then
	// computes only the new-vs-all pair set. With Store attached each
	// planned pair is verified against the snapshot and absences are
	// recomputed; without it the base region is trusted, which is the
	// storeless-replay mode (bit-identical as long as the original store
	// held at least the base pairs). 0 disables delta planning.
	BaseItems int
	// Store is an immutable pair-store snapshot consulted by the delta
	// prefilter. Requires ItemDigest. A nil Store with BaseItems > 0
	// trusts the base region (see BaseItems).
	Store *pairstore.Snapshot
	// StoreBatch, when non-nil, collects every computed pair result (in
	// completion order) for a post-run merge into a pair store. Requires
	// ItemDigest. The batch flush is charged as store write I/O.
	StoreBatch *pairstore.Batch
	// ItemDigest derives the content digest of one item for store keys;
	// see pairstore.DigestFunc.
	ItemDigest func(item int) pairstore.Digest
	// OnResult, when non-nil, is invoked in scheduler context once per
	// computed pair at completion (value is nil for cost-model runs).
	// It must not block.
	OnResult func(i, j int, value interface{})

	// Seed drives all randomized behavior (durations, victim selection).
	Seed uint64

	// Spans, when non-nil, receives every task interval of the run as a
	// virtual-time span on lane 0 of the flight recorder, as it completes
	// (the paper's profiling flag). Nil — the default — retains nothing
	// but the per-phase busy times and counts.
	Spans *obs.Recorder
	// CollectResults stores comparison outputs (real-kernel runs).
	CollectResults bool
	// ThroughputWindow, when positive, records per-device completed-pair
	// counts bucketed by this window (Fig. 14). Zero disables.
	ThroughputWindow sim.Time

	// StealBackoff is the idle wait after a failed steal round.
	// Default 100us.
	StealBackoff sim.Time
	// StealPolicy selects victim selection; default StealHierarchical.
	StealPolicy StealPolicy

	// Faults, when non-nil and non-empty, injects the deterministic fault
	// schedule (node crashes/restarts, straggler GPUs, degraded or
	// partitioned links) into the run and enables steal-based recovery.
	// With a nil or empty schedule every fault path is dormant and the
	// run is bit-identical to a failure-free build.
	Faults *fault.Schedule

	// FaultProbes are timed health observations armed inside virtual time
	// (scenario assertions). Probes sharing a timestamp with a fault event
	// observe the post-event world. With no schedule armed every probe
	// observes alive. Nil leaves the event stream untouched.
	FaultProbes []fault.Probe

	// ctrlMsgSize is the wire size of control messages.
	ctrlMsgSize int64
}

const defaultCtrlMsgSize = 256

// normalize validates cfg and fills in derived defaults, returning the
// ready-to-use copy.
func (cfg Config) normalize() (Config, error) {
	if cfg.App == nil {
		return cfg, fmt.Errorf("core: Config.App is required")
	}
	if cfg.Cluster == nil {
		return cfg, fmt.Errorf("core: Config.Cluster is required")
	}
	n := cfg.App.NumItems()
	if n < 2 {
		return cfg, fmt.Errorf("core: application has %d items; need at least 2", n)
	}
	if cfg.App.ItemSize() <= 0 {
		return cfg, fmt.Errorf("core: ItemSize must be positive")
	}
	if cfg.Hops == 0 {
		cfg.Hops = 1
	}
	if cfg.Hops < 0 {
		return cfg, fmt.Errorf("core: negative Hops %d", cfg.Hops)
	}
	if cfg.LeafPairs == 0 {
		cfg.LeafPairs = 16
	}
	if cfg.LeafPairs < 1 {
		return cfg, fmt.Errorf("core: LeafPairs must be >= 1")
	}
	if cfg.StealBackoff == 0 {
		cfg.StealBackoff = sim.Micros(100)
	}
	if cfg.StealBackoff < 0 {
		return cfg, fmt.Errorf("core: negative StealBackoff")
	}
	if cfg.DeviceSlots < 0 {
		return cfg, fmt.Errorf("core: negative DeviceSlots %d", cfg.DeviceSlots)
	}
	if cfg.HostSlots < -1 {
		return cfg, fmt.Errorf("core: HostSlots must be >= -1, got %d", cfg.HostSlots)
	}
	if cfg.ctrlMsgSize == 0 {
		cfg.ctrlMsgSize = defaultCtrlMsgSize
	}
	if cfg.PrewarmHost < 0 || cfg.PrewarmHost > 1 {
		return cfg, fmt.Errorf("core: PrewarmHost %v outside [0, 1]", cfg.PrewarmHost)
	}
	if cfg.BaseItems < 0 {
		return cfg, fmt.Errorf("core: negative BaseItems %d", cfg.BaseItems)
	}
	if len(cfg.Cluster.Nodes) == 1 {
		// The distributed cache needs peers.
		cfg.DistCache = false
	}
	return cfg, nil
}

// deviceSlotsFor returns the level-1 capacity for a device with the given
// memory.
func (cfg Config) deviceSlotsFor(memBytes int64) int {
	n := cfg.App.NumItems()
	slots := cfg.DeviceSlots
	if slots == 0 {
		slots = int(memBytes / cfg.App.ItemSize())
	}
	if slots > n {
		slots = n
	}
	if slots < 2 {
		slots = 2 // a comparison needs two resident items
	}
	return slots
}

// hostSlotsFor returns the level-2 capacity for a node, or 0 when the host
// cache is disabled.
func (cfg Config) hostSlotsFor(hostCacheBytes int64) int {
	if cfg.HostSlots == -1 {
		return 0
	}
	n := cfg.App.NumItems()
	slots := cfg.HostSlots
	if slots == 0 {
		slots = int(hostCacheBytes / cfg.App.ItemSize())
	}
	if slots > n {
		slots = n
	}
	if slots != 0 && slots < 2 {
		slots = 2
	}
	return slots
}

// jobLimitFor derives the per-device concurrent-job limit, bounded so
// that pinned cache slots can never deadlock the pipelines. Every job
// pins at most two slots per level and waits for at most one more while
// holding at most one; with J jobs and S slots, J <= S-1 guarantees an
// unpinned (evictable) slot always exists for some waiting job, so the
// system always makes progress. The host cache is shared by all of a
// node's devices, hence the division by numGPUs. The limit is per device
// (not per node) so that a fast GPU's submission rate is throttled only
// by its own completions, which is what lets work-stealing balance
// heterogeneous nodes.
func (cfg Config) jobLimitFor(devSlots, hostSlots, numGPUs int) int {
	limit := cfg.ConcurrentJobs
	if limit == 0 {
		limit = 48
	}
	if maxByDev := devSlots - 1; limit > maxByDev {
		limit = maxByDev
	}
	if hostSlots > 0 {
		if maxByHost := (hostSlots - 1) / numGPUs; limit > maxByHost {
			limit = maxByHost
		}
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}
