package core

import "rocket/internal/cache"

// MetricsSummary is the stable wire form of a run's Metrics: the curated
// scalar outcomes, with explicit JSON field names so serialized results
// can be compared byte-for-byte across runs (the online scheduler's
// replay-fidelity argument) and consumed by HTTP clients. Large or
// pointer-heavy diagnostics (phase tables, throughput series) are
// deliberately excluded.
type MetricsSummary struct {
	RuntimeNS int64   `json:"runtime_ns"`
	Pairs     uint64  `json:"pairs"`
	Loads     uint64  `json:"loads"`
	R         float64 `json:"r"`

	IOBytes  int64  `json:"io_bytes"`
	IOReads  uint64 `json:"io_reads"`
	NetBytes int64  `json:"net_bytes"`

	DevCacheHitRate  float64 `json:"dev_cache_hit_rate"`
	HostCacheHitRate float64 `json:"host_cache_hit_rate"`

	LocalSteals  uint64 `json:"local_steals"`
	RemoteSteals uint64 `json:"remote_steals"`
	FailedSteals uint64 `json:"failed_steals"`

	Crashes          uint64 `json:"crashes,omitempty"`
	Restarts         uint64 `json:"restarts,omitempty"`
	DroppedMessages  uint64 `json:"dropped_messages,omitempty"`
	RecoveredRegions uint64 `json:"recovered_regions,omitempty"`

	// Pair-store provenance; omitted for runs without store
	// participation, so their documents are unchanged.
	StoreHits       uint64 `json:"store_hits,omitempty"`
	StoreMisses     uint64 `json:"store_misses,omitempty"`
	StorePuts       uint64 `json:"store_puts,omitempty"`
	StoreReadBytes  int64  `json:"store_read_bytes,omitempty"`
	StoreWriteBytes int64  `json:"store_write_bytes,omitempty"`
	BaseItems       int    `json:"base_items,omitempty"`
}

// hitRate folds a slot cache's counters into hits over lookups; caches
// that were never consulted report 0.
func hitRate(s cache.Stats) float64 {
	lookups := s.Hits + s.WaitHits + s.Misses
	if lookups == 0 {
		return 0
	}
	return float64(s.Hits+s.WaitHits) / float64(lookups)
}

// Summary extracts the stable wire form of m.
func (m *Metrics) Summary() MetricsSummary {
	return MetricsSummary{
		RuntimeNS:        int64(m.Runtime),
		Pairs:            m.Pairs,
		Loads:            m.Loads,
		R:                m.R,
		IOBytes:          m.IOBytes,
		IOReads:          m.IOReads,
		NetBytes:         m.NetBytes,
		DevCacheHitRate:  hitRate(m.DevCache),
		HostCacheHitRate: hitRate(m.HostCache),
		LocalSteals:      m.LocalSteals,
		RemoteSteals:     m.RemoteSteals,
		FailedSteals:     m.FailedSteals,
		Crashes:          m.Crashes,
		Restarts:         m.Restarts,
		DroppedMessages:  m.DroppedMessages,
		RecoveredRegions: m.RecoveredRegions,
		StoreHits:        m.StoreHits,
		StoreMisses:      m.StoreMisses,
		StorePuts:        m.StorePuts,
		StoreReadBytes:   m.StoreReadBytes,
		StoreWriteBytes:  m.StoreWriteBytes,
		BaseItems:        m.BaseItems,
	}
}
