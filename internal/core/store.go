package core

import (
	"encoding/json"
	"fmt"

	"rocket/internal/pairs"
	"rocket/internal/pairstore"
)

// storePlan is one run's resolved incremental plan: which pairs are
// served from the persistent pair store instead of computed, what the
// serving costs in charged I/O, and where computed results are emitted.
//
// The plan is pure function of (BaseItems, snapshot contents): pairs
// with both items below BaseItems are planned resident; with a snapshot
// attached each planned pair is verified and absences are recomputed,
// without a snapshot the base region is trusted (the storeless-replay mode — see DESIGN.md §8 for why a warm
// store holding at least the base pairs makes the two modes
// bit-identical). Everything here is decided before the first event
// fires, so an empty plan (zero hits, zero puts) leaves the event
// stream byte-identical to a storeless run.
type storePlan struct {
	base   int
	digest func(int) pairstore.Digest
	snap   *pairstore.Snapshot
	batch  *pairstore.Batch
	// missing holds planned-resident pairs the snapshot did not contain;
	// they are recomputed (and re-emitted). Almost always empty.
	missing map[pairIJ]struct{}
	// pruneOK allows O(1) whole-region pruning: every pair of the base
	// region is resident.
	pruneOK bool
	version int

	hits       int64
	misses     int64
	entryBytes int64
	readBytes  int64
	writeBytes int64
}

// buildStorePlan resolves the incremental plan, or returns (nil, nil)
// when the configuration has no store participation at all.
func buildStorePlan(cfg Config) (*storePlan, error) {
	if cfg.BaseItems == 0 && cfg.Store == nil && cfg.StoreBatch == nil {
		return nil, nil
	}
	if (cfg.Store != nil || cfg.StoreBatch != nil) && cfg.ItemDigest == nil {
		return nil, fmt.Errorf("core: Store/StoreBatch require Config.ItemDigest")
	}
	p := &storePlan{
		base:       cfg.BaseItems,
		digest:     cfg.ItemDigest,
		snap:       cfg.Store,
		batch:      cfg.StoreBatch,
		version:    cfg.App.NumItems(),
		entryBytes: cfg.App.ResultSize() + pairstore.EntryOverheadBytes,
	}
	if n := cfg.App.NumItems(); p.base > n {
		p.base = n
	}
	if p.base > 0 {
		p.missing = make(map[pairIJ]struct{})
		// Probe the snapshot in chunks so the store lock is taken once
		// per batch, not once per pair (the base region is O(base²)).
		// HasMany answers each key from the sealed segments' residency
		// indexes, two dictionary lookups and one set test per segment
		// visited; a segment's index is built from its blocks, each
		// inflated once, on the first chunk that reaches it.
		const probeChunk = 4096
		var (
			keys = make([]pairstore.Key, 0, probeChunk)
			prs  = make([]pairIJ, 0, probeChunk)
			res  = make([]bool, probeChunk)
		)
		flush := func() {
			if len(keys) == 0 {
				return
			}
			p.snap.HasMany(keys, res)
			for k := range keys {
				if res[k] {
					p.hits++
				} else {
					p.missing[prs[k]] = struct{}{}
					p.misses++
				}
			}
			keys, prs = keys[:0], prs[:0]
		}
		pairs.Region{RowLo: 0, RowHi: p.base, ColLo: 0, ColHi: p.base}.Each(func(i, j int) {
			if p.snap == nil {
				p.hits++ // trust mode: no snapshot to verify against
				return
			}
			keys = append(keys, pairstore.PairKey(p.digest, i, j))
			prs = append(prs, pairIJ{i, j})
			if len(keys) == probeChunk {
				flush()
			}
		})
		flush()
		p.pruneOK = len(p.missing) == 0
		p.readBytes = p.hits * p.entryBytes
	}
	return p, nil
}

// resident reports whether pair (i, j) is served from the store.
func (p *storePlan) resident(i, j int) bool {
	if i >= p.base || j >= p.base {
		return false
	}
	if len(p.missing) == 0 {
		return true
	}
	_, miss := p.missing[pairIJ{i, j}]
	return !miss
}

// pruneRegion reports whether the whole region is store-resident and
// can be dropped before subdivision.
func (p *storePlan) pruneRegion(r pairs.Region) bool {
	return p.pruneOK && r.RowHi <= p.base && r.ColHi <= p.base
}

// emitResult records one computed pair into the batch, when attached.
func (rt *runtime) emitResult(i, j int, value interface{}) {
	p := rt.plan
	if p == nil || p.batch == nil {
		return
	}
	e := pairstore.Entry{Key: pairstore.PairKey(p.digest, i, j), Version: p.version}
	if value != nil {
		if raw, err := json.Marshal(value); err == nil {
			e.Value = raw
		}
		// An unmarshalable result degrades to storing the completion
		// fact only; the charged write cost is modeled from ResultSize
		// either way.
	}
	p.batch.Add(e)
}

// pairOK reports whether pair (i, j) is to be computed by this run: it
// is not served from the store.
func (rt *runtime) pairOK(i, j int) bool {
	return rt.plan == nil || !rt.plan.resident(i, j)
}

// chargeStoreRead schedules the store scan that serves the resident
// pairs: one batched read of the resident entries through node 0's I/O
// thread and the shared storage server, exactly like an input-file
// read, so the cost of warm-starting shows up on the same axes as
// every other cost. Scheduled before the workers start so the scan is
// first in line for the I/O thread at t=0.
func (rt *runtime) chargeStoreRead() {
	n := rt.nodes[0]
	rt.env.At(0, func() {
		n.node.IO.AcquireFunc(rt.env, func() {
			start := rt.env.Now()
			rt.cl.Storage.ReadFunc(rt.env, rt.plan.readBytes, func() {
				n.node.IO.Release(rt.env)
				rt.record(PhaseStoreRead, n.node.Name()+"/store", -1, -1, start)
			})
		})
	})
}

// flushStore charges the append of the emitted batch to the store's
// segment log: one batched write through node 0's I/O thread and the
// shared storage server. It runs after the final pair completes (the
// computation is done; the flush extends the reported runtime of
// fault-free runs, modeling the cost of making results durable).
func (rt *runtime) flushStore() {
	p := rt.plan
	if p == nil || p.batch.Len() == 0 {
		return
	}
	bytes := int64(p.batch.Len()) * p.entryBytes
	n := rt.nodes[0]
	n.node.IO.AcquireFunc(rt.env, func() {
		start := rt.env.Now()
		rt.cl.Storage.WriteFunc(rt.env, bytes, func() {
			n.node.IO.Release(rt.env)
			p.writeBytes = bytes
			rt.record(PhaseStoreWrite, n.node.Name()+"/store", -1, -1, start)
		})
	})
}
