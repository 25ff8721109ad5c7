package core

import (
	"sort"

	"rocket/internal/cache"
	"rocket/internal/dht"
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Metrics is the outcome of one runtime execution.
type Metrics struct {
	// Runtime is the start-to-end virtual run time.
	Runtime sim.Time
	// Pairs is the number of comparisons performed (always n choose 2 on
	// success).
	Pairs uint64
	// Loads is the number of full load-pipeline executions across the
	// cluster; R = Loads / n (paper §6.1).
	Loads uint64
	// R is the relative number of loads, the paper's data-reuse metric.
	R float64

	// IOBytes and IOReads account traffic to the storage server. IOBytes
	// covers both directions (input-file and store reads, plus store
	// segment-log writes — they contend on the same server); IOReads
	// counts read requests only.
	IOBytes int64
	IOReads uint64
	// NetBytes is total inter-node traffic (distributed cache + stealing).
	NetBytes int64

	// DevCache and HostCache aggregate slot-cache statistics over all
	// devices / nodes.
	DevCache  cache.Stats
	HostCache cache.Stats
	// DHT aggregates distributed-cache outcomes over all nodes (zero when
	// the distributed cache is disabled).
	DHT dht.Metrics

	// Work-stealing counters.
	LocalSteals  uint64
	RemoteSteals uint64
	FailedSteals uint64

	// Fault-injection outcomes; all zero in failure-free runs.
	Crashes  uint64
	Restarts uint64
	// DroppedMessages counts fabric messages discarded because an
	// endpoint was dead or a link partitioned.
	DroppedMessages uint64
	// StaleStealReplies counts steal replies that arrived after a crash
	// invalidated their pending request (their regions are re-exposed).
	StaleStealReplies uint64
	// RecoveredRegions/RecoveredPairs measure the work re-exposed for
	// stealing by crash recovery.
	RecoveredRegions uint64
	RecoveredPairs   int64

	// Pair-store outcomes; all zero for runs without store participation.
	// StoreHits is the number of pairs served from the store instead of
	// computed (Pairs + StoreHits covers the full workload); StoreMisses
	// counts planned-resident pairs the snapshot did not contain
	// (recomputed); StorePuts counts results emitted for merge.
	StoreHits   uint64
	StoreMisses uint64
	StorePuts   uint64
	// StoreReadBytes and StoreWriteBytes are the charged store I/O.
	StoreReadBytes  int64
	StoreWriteBytes int64
	// BaseItems echoes the delta plan's resident prefix (0 = full run).
	BaseItems int

	// Phases holds the busy time and task count of every pipeline phase.
	Phases PhaseTable

	// DeviceThroughput maps device ID to its completed-pairs time series
	// (only when Config.ThroughputWindow > 0).
	DeviceThroughput map[string]*stats.TimeSeries
	// DeviceIDs lists device IDs in deterministic order.
	DeviceIDs []string

	// DeviceSlots and HostSlots record the derived capacities of node 0
	// (for reporting).
	DeviceSlots int
	HostSlots   int
	// JobLimit records the derived per-device concurrent-job limit.
	JobLimit int

	// Results holds comparison outputs for real-kernel runs with
	// CollectResults set.
	Results []Result

	// Events is the number of simulation events processed (cost metric).
	Events uint64
	// HeapPushes and LanePushes split the events scheduled during the run
	// by how the engine queued them: ordered through its heap, or — those
	// scheduled for the instant they were pushed at — appended to its
	// now-lane. Exact at a seed, like Events.
	HeapPushes uint64
	LanePushes uint64
}

// Throughput returns average pairs/second over the whole run.
func (m *Metrics) Throughput() float64 {
	secs := m.Runtime.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(m.Pairs) / secs
}

// aggregate gathers per-node state into the metrics after a run.
func (rt *runtime) aggregate() *Metrics {
	m := &Metrics{
		Runtime:           rt.env.Now(),
		Pairs:             uint64(rt.pairsDone),
		Loads:             rt.loads,
		IOBytes:           rt.cl.Storage.BytesRead() + rt.cl.Storage.BytesWritten(),
		IOReads:           rt.cl.Storage.Reads(),
		NetBytes:          rt.cl.Net.BytesSent(),
		Phases:            rt.phases,
		LocalSteals:       rt.localSteals,
		RemoteSteals:      rt.remoteSteals,
		FailedSteals:      rt.failedSteals,
		Crashes:           rt.crashes,
		Restarts:          rt.restarts,
		DroppedMessages:   rt.cl.Net.Dropped(),
		StaleStealReplies: rt.staleStealReplies,
		RecoveredRegions:  rt.recoveredRegions,
		RecoveredPairs:    rt.recoveredPairs,
		Results:           rt.results,
		DeviceThroughput:  rt.throughput,
		Events:            rt.env.EventsProcessed(),
		HeapPushes:        rt.env.HeapPushes(),
		LanePushes:        rt.env.LanePushes(),
		JobLimit:          rt.nodes[0].devs[0].jobTokens.Cap(),
	}
	if p := rt.plan; p != nil {
		m.StoreHits = uint64(p.hits)
		m.StoreMisses = uint64(p.misses)
		m.StorePuts = uint64(p.batch.Len())
		m.StoreReadBytes = p.readBytes
		m.StoreWriteBytes = p.writeBytes
		m.BaseItems = p.base
	}
	if rt.inj != nil && rt.finished {
		// Fault events armed beyond completion still drain through the
		// event loop; report the pinned completion time instead.
		m.Runtime = rt.finishedAt
	}
	m.R = float64(m.Loads) / float64(rt.cfg.App.NumItems())
	m.DHT.HitAtHop = make([]uint64, rt.cfg.Hops)
	for _, n := range rt.nodes {
		if n.host != nil {
			hs := n.host.Stats()
			m.HostCache.Hits += hs.Hits
			m.HostCache.WaitHits += hs.WaitHits
			m.HostCache.Misses += hs.Misses
			m.HostCache.Evictions += hs.Evictions
			m.HostCache.Stalls += hs.Stalls
		}
		for _, d := range n.devs {
			ds := d.cache.Stats()
			m.DevCache.Hits += ds.Hits
			m.DevCache.WaitHits += ds.WaitHits
			m.DevCache.Misses += ds.Misses
			m.DevCache.Evictions += ds.Evictions
			m.DevCache.Stalls += ds.Stalls
			m.DeviceIDs = append(m.DeviceIDs, d.dev.ID)
		}
		if n.dht != nil {
			dm := n.dht.Metrics()
			m.DHT.Requests += dm.Requests
			m.DHT.Misses += dm.Misses
			m.DHT.StaleReplies += dm.StaleReplies
			for i, h := range dm.HitAtHop {
				m.DHT.HitAtHop[i] += h
			}
		}
	}
	sort.Strings(m.DeviceIDs)
	m.DeviceSlots = rt.nodes[0].devs[0].cache.Cap()
	if rt.nodes[0].host != nil {
		m.HostSlots = rt.nodes[0].host.Cap()
	}
	return m
}
