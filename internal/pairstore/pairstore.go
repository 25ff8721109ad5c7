// Package pairstore is the persistent all-pairs result store: a
// content-addressed map from item-digest pairs to comparison results,
// organized as a log-structured store — a small mutable log (memtable)
// in front of tiers of immutable, digest-sorted, columnar,
// block-compressed segments (see segment.go for the layout).
//
// The store is what turns repeated all-pairs workloads into incremental
// ones. The paper's domains — forensics corpora, sequence databases,
// microscopy archives — grow append-only, so when a dataset goes from n
// to n+k items, the k·n + k(k-1)/2 pairs touching new items are the only
// genuinely new work; everything else is already in the store. The
// runtime (rocket/internal/core) consults an immutable Snapshot to skip
// resident pairs before region subdivision, charges the resulting store
// reads and writes through the same virtual-time cost model as ordinary
// I/O, and emits the pairs it did compute into a Batch that the
// scheduler merges back at a deterministic point.
//
// Scale. Billion-pair datasets rule out a fully resident per-pair
// index. Sealed segments keep only a bounded fence index in memory
// (per-block min/max keys, the digest dictionary, a bloom filter —
// O(√pairs + pairs/blockRows), not O(pairs)); probes push the predicate
// down, skipping whole segments by fence and bloom and whole blocks by
// fence, and decode at most one block per hit. Seal promotes the
// memtable into a sorted L0 segment; tiered compaction merges a level
// once it holds compactFanout segments, eliminating superseded entries
// and — when the merge produces the bottom-most segment — tombstones.
//
// Keying. An entry is addressed by the pair of item digests, where a
// digest identifies one item's content within a dataset lineage: it is
// derived from (store ref, application name, dataset seed, item index).
// For the synthetic applications of this reproduction the (seed, index)
// pair IS the item's content — every per-item cost and payload is a pure
// hash of it, independent of the dataset size — so digests are stable
// under append-only growth, which is exactly the property content
// addressing needs. A real deployment would digest the input files
// instead; nothing else would change. The dataset version that produced
// an entry is recorded as provenance, not key material: growing the
// dataset must not invalidate old results.
//
// Determinism. Store contents influence a run only through the Snapshot
// handed to it, and Snapshots are immutable: a snapshot pins the
// memtable prefix and the segment list as of its creation, and neither
// later appends nor Seal/Compact (which only add or replace whole
// immutable segments) change what it reports. The scheduler snapshots at
// job placement and merges batches at job completion, both inside its
// deterministic virtual-time loop, so a served fleet and its offline
// replay observe identical store states at every decision point.
package pairstore

import (
	"encoding/json"
	"math/bits"
	"slices"
	"sync"
)

// Digest identifies one item's content within a dataset lineage.
type Digest uint64

// Key addresses one pair result: the digests of the left (i) and right
// (j) items, in pair order (i < j positionally; comparisons need not be
// symmetric, so digests are not sorted).
type Key struct {
	A Digest `json:"a"`
	B Digest `json:"b"`
}

// Entry is one stored comparison result.
type Entry struct {
	Key Key `json:"key"`
	// Version is the dataset version (item count) of the run that
	// produced the entry — provenance, not key material.
	Version int `json:"version,omitempty"`
	// Value is the JSON-encoded comparison result; empty for cost-model
	// runs, which store only the fact of completion.
	Value json.RawMessage `json:"value,omitempty"`
	// Tombstone marks a deletion record: the key was retracted and reads
	// must report it absent until a newer entry revives it. Tombstones
	// are eliminated when compaction reaches the bottom level.
	Tombstone bool `json:"tombstone,omitempty"`
}

// EntryOverheadBytes is the modeled on-disk framing cost of one entry
// (key, version, length prefix) used by the charged-I/O model: a store
// entry costs the application's ResultSize plus this overhead. (The
// physical columnar segments land far below this — see Stats.
// BytesPerPair — but the charged model keeps the conservative figure so
// experiment outputs stay comparable across storage engines.)
const EntryOverheadBytes = 24

// DigestItem derives the content digest of one item. ref is the store
// namespace (dataset lineage), app the application name, seed the
// dataset seed; see the package comment for why (seed, item) addresses
// content here.
func DigestItem(ref, app string, seed uint64, item int) Digest {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-64 prime
	}
	for i := 0; i < len(ref); i++ {
		mix(ref[i])
	}
	mix(0xff) // separator: ("ab","c") must not collide with ("a","bc")
	for i := 0; i < len(app); i++ {
		mix(app[i])
	}
	mix(0xfe)
	// Seed and item are mixed at fixed 8-byte width: a variable-length
	// encoding would be ambiguous (a data byte can mimic a separator),
	// letting distinct (seed, item) lineages collide on every digest.
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	mix(0xfd)
	for i := 0; i < 8; i++ {
		mix(byte(uint64(item) >> (8 * i)))
	}
	// Final avalanche (splitmix64) so near-identical inputs spread.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return Digest(h)
}

// DigestFunc returns the per-item digest function of one dataset
// lineage, the form the runtime consumes (core.Config.ItemDigest).
func DigestFunc(ref, app string, seed uint64) func(item int) Digest {
	return func(item int) Digest { return DigestItem(ref, app, seed, item) }
}

// PairKey builds the key for pair (i, j) under the given digest
// function.
func PairKey(digest func(int) Digest, i, j int) Key {
	return Key{A: digest(i), B: digest(j)}
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Entries is the number of distinct live keys.
	Entries int `json:"entries"`
	// Segments is the number of log segments (sealed segments plus the
	// mutable log when it holds entries; an empty store reports one, its
	// open log).
	Segments int `json:"segments"`
	// Levels is the number of non-empty compaction tiers.
	Levels int `json:"levels"`
	// LogEntries counts entries across the mutable log and all sealed
	// segments, including superseded entries and tombstones not yet
	// compacted away.
	LogEntries int `json:"log_entries"`
	// Bytes is the modeled log size (values + per-entry overhead), the
	// figure the charged-I/O model uses.
	Bytes int64 `json:"bytes"`
	// DiskBytes is the physical size of the persisted segment files
	// (columnar, compressed); 0 for segments not yet saved.
	DiskBytes int64 `json:"disk_bytes"`
	// BytesPerPair is DiskBytes divided by the entries resident in
	// persisted segments — the storage-efficiency figure the bench gate
	// tracks.
	BytesPerPair float64 `json:"bytes_per_pair"`
	// IndexResidentBytes is the in-memory footprint of the sealed
	// segments' probe structures (fence indexes, digest dictionaries,
	// bloom filters) — bounded, unlike a per-pair map.
	IndexResidentBytes int64 `json:"index_resident_bytes"`
	// Puts counts accepted appends; DupPuts appends ignored because the
	// key was already live.
	Puts    uint64 `json:"puts"`
	DupPuts uint64 `json:"dup_puts"`
	// Deletes counts accepted deletions; Tombstones the deletion records
	// still present in the log.
	Deletes    uint64 `json:"deletes,omitempty"`
	Tombstones int    `json:"tombstones,omitempty"`
	// Seals counts memtable promotions into L0 segments.
	Seals uint64 `json:"seals"`
	// ServedPairs and MissedPairs aggregate runtime outcomes reported
	// back by the scheduler: pairs skipped because they were resident,
	// and planned-resident pairs that had to be recomputed.
	ServedPairs uint64 `json:"served_pairs"`
	MissedPairs uint64 `json:"missed_pairs"`
	// ReadBytes and WriteBytes total the charged store I/O.
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
	// Compactions counts merge operations (tier merges and full
	// Compact calls); CompactedAway the rows they dropped (superseded
	// entries plus eliminated tombstones).
	Compactions   uint64 `json:"compactions"`
	CompactedAway uint64 `json:"compacted_away"`
	// BloomProbes counts segment probes that consulted a bloom filter:
	// every point probe (Get, Has, Put's duplicate check) and the
	// HasMany probes whose block was not in the block cache.
	// BloomNegatives are the probes the filter answered "definitely
	// absent" without decoding a block; BloomFalsePositives the probes
	// that went on to the exact lookup and found nothing. BloomHitRate
	// is BloomNegatives / BloomProbes.
	BloomProbes         uint64  `json:"bloom_probes"`
	BloomNegatives      uint64  `json:"bloom_negatives"`
	BloomFalsePositives uint64  `json:"bloom_false_positives"`
	BloomHitRate        float64 `json:"bloom_hit_rate"`
	// Blocks is the number of blocks across the sealed segments.
	// BlockDecodes counts the blocks probes inflated (block-cache misses,
	// plus the row decode behind each Get hit in a segment) and
	// BlockCacheHits the block lookups the cache answered; a plan whose
	// blocks fit the cache decodes each at most once. BlockCacheBytes is
	// the decoded key columns currently cached, at most blockCacheLimit
	// (8 MiB).
	Blocks          int    `json:"blocks,omitempty"`
	BlockDecodes    uint64 `json:"block_decodes,omitempty"`
	BlockCacheHits  uint64 `json:"block_cache_hits,omitempty"`
	BlockCacheBytes int64  `json:"block_cache_bytes,omitempty"`
}

// memEntry is one mutable-log slot: the entry, a link to the previous
// occurrence of the same key (−1 if none), which is what lets snapshots
// resolve a key against their pinned prefix, and whether a later
// occurrence supersedes it, which is what lets a seal walk the log in
// order.
type memEntry struct {
	e          Entry
	prev       int32
	superseded bool
}

// memtable is the mutable log: entries in append order plus an
// open-addressed index of each key's latest occurrence. An index slot
// holds the position + 1 in its low half (0 = empty) and the low half
// of the key's hash in its high half, so a probe rejects other keys
// without touching their entries. The log is never mutated after Seal
// swaps it out, so snapshots can keep reading their pinned prefix.
type memtable struct {
	entries []memEntry
	index   []uint64
	shift   uint // 64 − log₂ len(index)
	keys    int  // distinct keys indexed
	hint    int  // keys to size the first index for: the last log's length
	modeled int64
	tombs   int
}

// keyHash spreads a key over the index. Item digests are already
// avalanched (DigestItem); the multiply is for keys that are not.
func keyHash(k Key) uint64 {
	return (uint64(k.A) ^ bits.RotateLeft64(uint64(k.B), 32)) * 0x9e3779b97f4a7c15
}

// find returns k's index slot — the one holding it, or the empty one
// where it belongs — and the position of its latest occurrence (−1).
func (m *memtable) find(k Key) (slot, pos int) {
	h := keyHash(k)
	mask := len(m.index) - 1
	for i := int(h >> m.shift); ; i = (i + 1) & mask {
		s := m.index[i]
		if s == 0 {
			return i, -1
		}
		if s>>32 == h&0xffffffff && m.entries[uint32(s)-1].e.Key == k {
			return i, int(uint32(s)) - 1
		}
	}
}

// grow allocates the index on the first append, the smallest power of
// two that holds hint keys at a load of at most one half, and doubles
// it when that load is passed; the log is grown to match, room for half
// the index (append alone would grow a long log by a quarter at a time,
// allocating five times its final size on the way). Load counts keys,
// not entries: after delete/re-put churn the log may already be longer.
func (m *memtable) grow() {
	n := max(64, 2*len(m.index))
	for n < 2*m.hint {
		n *= 2
	}
	m.entries = slices.Grow(m.entries, max(0, n/2-len(m.entries)))
	m.index, m.shift = make([]uint64, n), uint(64-bits.Len(uint(n-1)))
	for pos := range m.entries {
		if !m.entries[pos].superseded {
			i, _ := m.find(m.entries[pos].e.Key)
			m.index[i] = keyHash(m.entries[pos].e.Key)<<32 | uint64(pos+1)
		}
	}
}

func (m *memtable) add(e Entry) {
	if 2*(m.keys+1) > len(m.index) {
		m.grow()
	}
	i, prev := m.find(e.Key)
	if prev >= 0 {
		m.entries[prev].superseded = true
	} else {
		m.keys++
	}
	m.entries = append(m.entries, memEntry{e: e, prev: int32(prev)})
	m.index[i] = keyHash(e.Key)<<32 | uint64(len(m.entries))
	m.modeled += entryBytes(e)
	if e.Tombstone {
		m.tombs++
	}
}

// lookup returns the latest occurrence of k among the first limit
// entries. The caller distinguishes live entries from tombstones.
func (m *memtable) lookup(k Key, limit int) (Entry, bool) {
	if limit == 0 {
		return Entry{}, false
	}
	_, pos := m.find(k)
	for pos >= limit {
		pos = int(m.entries[pos].prev)
	}
	if pos < 0 {
		return Entry{}, false
	}
	return m.entries[pos].e, true
}

const (
	// defaultAutoSeal is the memtable size at which Put seals
	// automatically, bounding the mutable log's memory footprint during
	// bulk ingestion.
	defaultAutoSeal = 1 << 20
	// compactFanout is the tiering trigger: a level holding this many
	// segments is merged into one segment on the next level.
	compactFanout = 4
)

// Store is the mutable, lock-protected store. Runs never touch it
// directly: they read an immutable Snapshot and write through a Batch.
type Store struct {
	mu       sync.Mutex
	mem      *memtable
	levels   [][]*segment // levels[0] = L0 (seal order, oldest first); deeper = older
	nextSeg  uint64
	live     int // distinct keys visible (puts − deletes)
	autoSeal int
	stats    Stats
	cache    blockCache // decoded key columns of sealed blocks (blockcache.go)
	// onSeal/onCompact, when non-nil, observe maintenance: onSeal fires
	// after each mutable-log seal with the number of rows promoted,
	// onCompact after each tier merge or full compaction with the number
	// of input segments. Both run with s.mu held and must not call back
	// into the store. See SetMaintenanceHooks.
	onSeal    func(rows int)
	onCompact func(inputs int)
}

// SetMaintenanceHooks installs observers for seals and compactions (the
// observability layer's storage feed). Either may be nil. Hooks are
// invoked synchronously under the store's lock, so they must be cheap
// and must not touch the store. Install before concurrent use.
func (s *Store) SetMaintenanceHooks(onSeal func(rows int), onCompact func(inputs int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSeal, s.onCompact = onSeal, onCompact
}

// New returns an empty store with one open mutable log.
func New() *Store {
	s := &Store{mem: &memtable{}, autoSeal: defaultAutoSeal}
	s.cache.init(&s.stats)
	return s
}

// SetAutoSealThreshold overrides the memtable size at which Put seals
// automatically (0 restores the default). Smaller thresholds bound
// memory during bulk ingestion at the cost of more L0 segments.
func (s *Store) SetAutoSealThreshold(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = defaultAutoSeal
	}
	s.autoSeal = n
}

// entryBytes is the modeled log footprint of one entry.
func entryBytes(e Entry) int64 {
	return EntryOverheadBytes + int64(len(e.Value))
}

// segmentsNewestFirst flattens the levels into probe order: L0 newest
// seal first, then deeper (older) tiers.
func (s *Store) segmentsNewestFirst() []*segment {
	var out []*segment
	for _, level := range s.levels {
		for i := len(level) - 1; i >= 0; i-- {
			out = append(out, level[i])
		}
	}
	return out
}

// lookupLocked resolves k against the memtable and every segment,
// newest first. found=false means no record at all. Without wantRow a
// sealed record comes back as its key and tombstone flag only, which
// spares the full decode of its block.
func (s *Store) lookupLocked(k Key, wantRow bool) (Entry, bool) {
	if e, ok := s.mem.lookup(k, len(s.mem.entries)); ok {
		return e, true
	}
	for _, level := range s.levels {
		for i := len(level) - 1; i >= 0; i-- {
			if r, ok := level[i].get(k, &s.cache, wantRow); ok {
				return rowEntry(r), true
			}
		}
	}
	return Entry{}, false
}

func rowEntry(r row) Entry {
	e := Entry{Key: r.key, Version: r.ver, Tombstone: r.tomb}
	if len(r.val) > 0 {
		e.Value = append(json.RawMessage(nil), r.val...)
	}
	return e
}

// Put appends one entry. The store is append-only: a key that is
// already live keeps its first value and Put reports false. (A deleted
// key may be re-put; the new entry shadows the tombstone.)
func (s *Store) Put(e Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(e)
}

func (s *Store) putLocked(e Entry) bool {
	if cur, ok := s.lookupLocked(e.Key, false); ok && !cur.Tombstone {
		s.stats.DupPuts++
		return false
	}
	e.Tombstone = false
	s.mem.add(e)
	s.live++
	s.stats.Puts++
	if len(s.mem.entries) >= s.autoSeal {
		s.sealLocked()
	}
	return true
}

// Delete retracts a live key by appending a tombstone, reporting
// whether anything was deleted. The record is physically removed when
// compaction reaches the bottom level.
func (s *Store) Delete(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.lookupLocked(k, false); !ok || cur.Tombstone {
		return false
	}
	s.mem.add(Entry{Key: k, Tombstone: true})
	s.live--
	s.stats.Deletes++
	return true
}

// Merge appends every entry of the batch, in batch order, returning how
// many were new. A nil batch is a no-op.
func (s *Store) Merge(b *Batch) int {
	if b == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, e := range b.entries {
		if s.putLocked(e) {
			added++
		}
	}
	return added
}

// Get returns the entry for k, if live.
func (s *Store) Get(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookupLocked(k, true)
	if !ok || e.Tombstone {
		return Entry{}, false
	}
	return e, true
}

// Has reports whether k is live.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookupLocked(k, false)
	return ok && !e.Tombstone
}

// Len returns the number of distinct live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Seal promotes the mutable log into a sorted L0 segment, so
// subsequent appends start a fresh log run and probes against the
// sealed entries go through the columnar fast path. Sealing an empty
// log is a no-op. Sealing cascades tier merges: a level reaching
// compactFanout segments is merged into the next level.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
}

// MaybeSeal seals when the mutable log has reached the auto-seal
// threshold — the entry point background maintenance (the scheduler's
// merge points, rocketd idle moments) calls opportunistically.
func (s *Store) MaybeSeal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mem.entries) >= s.autoSeal {
		s.sealLocked()
	}
}

// sealRec is one surviving log entry in the seal's sort: all of its row
// but the value, which is read back from the log position when there is
// one. Most rows have none, so the sorted walk does not touch the log.
type sealRec struct {
	key  Key
	ver  int
	pos  int32
	tomb bool
	val  bool
}

func (s *Store) sealLocked() {
	m := s.mem
	if len(m.entries) == 0 {
		return
	}
	// The latest occurrence of a key wins. Tombstones survive only if an
	// older segment could hold a shadowed entry.
	anySegments := false
	for _, level := range s.levels {
		if len(level) > 0 {
			anySegments = true
			break
		}
	}
	recs := make([]sealRec, 0, len(m.entries))
	dict := make([]uint64, 0, 1024) // a thousand items' digests without regrowing
	dropped := 0
	for pos := range m.entries {
		me := &m.entries[pos]
		if me.superseded || me.e.Tombstone && !anySegments {
			dropped++
			continue
		}
		recs = append(recs, sealRec{key: me.e.Key, ver: me.e.Version, pos: int32(pos),
			tomb: me.e.Tombstone, val: len(me.e.Value) > 0})
		if n := len(dict); n == 0 || dict[n-1] != uint64(me.e.Key.B) {
			dict = append(dict, uint64(me.e.Key.B)) // B digests come in runs
		}
	}
	s.stats.CompactedAway += uint64(dropped)
	if len(recs) > 0 {
		// Keys are unique within a seal, so every correct sort yields the
		// same order, and the same segment bytes.
		slices.SortFunc(recs, func(a, b sealRec) int { return keyCmp(a.key, b.key) })
		for i, r := range recs {
			if i == 0 || r.key.A != recs[i-1].key.A {
				dict = append(dict, uint64(r.key.A)) // A digests now arrive sorted
			}
		}
		slices.Sort(dict)
		dict = slices.Compact(dict)
		b := newSegBuilder(s.nextSeg, slices.Clone(dict), len(recs))
		for _, r := range recs {
			rw := row{key: r.key, ver: r.ver, tomb: r.tomb}
			if r.val {
				rw.val = m.entries[r.pos].e.Value
			}
			b.add(rw)
		}
		s.nextSeg++
		if len(s.levels) == 0 {
			s.levels = append(s.levels, nil)
		}
		s.levels[0] = append(s.levels[0], b.finish())
	}
	s.mem = &memtable{hint: min(len(m.entries), s.autoSeal)}
	s.stats.Seals++
	if s.onSeal != nil {
		s.onSeal(len(recs))
	}
	s.maybeTierLocked()
}

// maybeTierLocked merges any level that reached the fanout into the
// next level, cascading upward.
func (s *Store) maybeTierLocked() {
	for l := 0; l < len(s.levels); l++ {
		if len(s.levels[l]) < compactFanout {
			continue
		}
		inputs := s.levels[l]
		s.levels[l] = nil
		if l+1 == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		// Tombstones can be eliminated only when the merge output becomes
		// the bottom-most segment (nothing older can hold shadowed keys).
		dropTombs := len(s.levels[l+1]) == 0
		for d := l + 2; d < len(s.levels); d++ {
			if len(s.levels[d]) > 0 {
				dropTombs = false
			}
		}
		merged, dropped := mergeSegments(s.nextSeg, inputs, dropTombs)
		s.nextSeg++
		s.cache.drop(inputs)
		if merged != nil {
			s.levels[l+1] = append(s.levels[l+1], merged)
		}
		s.stats.Compactions++
		s.stats.CompactedAway += uint64(dropped)
		if s.onCompact != nil {
			s.onCompact(len(inputs))
		}
	}
}

// Compact merges the entire store — mutable log included — into a
// single bottom-level segment, dropping superseded entries and
// eliminating tombstones, and returns the number of rows dropped.
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sealDrop := s.stats.CompactedAway
	if len(s.mem.entries) > 0 {
		s.sealLocked()
	}
	sealDropped := int(s.stats.CompactedAway - sealDrop)
	inputs := make([]*segment, 0)
	for i := len(s.levels) - 1; i >= 0; i-- { // oldest level first
		inputs = append(inputs, s.levels[i]...)
	}
	s.stats.Compactions++
	if s.onCompact != nil {
		s.onCompact(len(inputs))
	}
	if len(inputs) == 0 {
		s.levels = nil
		return sealDropped
	}
	if len(inputs) == 1 && inputs[0].tombs == 0 {
		// Single-segment compaction with nothing to eliminate: keep the
		// segment as-is (no rewrite, no new identity).
		s.levels = [][]*segment{{inputs[0]}}
		return sealDropped
	}
	merged, dropped := mergeSegments(s.nextSeg, inputs, true)
	s.nextSeg++
	s.cache.drop(inputs)
	if merged != nil {
		s.levels = [][]*segment{{merged}}
	} else {
		s.levels = nil
	}
	s.stats.CompactedAway += uint64(dropped)
	return sealDropped + dropped
}

// mergeSegments k-way-merges the inputs (ordered oldest first) into
// one segment with the given id. Among same-key rows the newest input
// wins; dropTombs eliminates tombstones from the output. Returns nil
// when everything merged away.
func mergeSegments(id uint64, inputs []*segment, dropTombs bool) (*segment, int) {
	// Dictionary: sorted union of the input dictionaries. Dedup below
	// may leave a few unreferenced digests — harmless (the dictionary is
	// O(items), a vanishing fraction of the file).
	var dict []uint64
	for _, in := range inputs {
		dict = append(dict, in.dict...)
	}
	slices.Sort(dict)
	dict = slices.Compact(dict)

	est := 0
	iters := make([]*segIter, len(inputs))
	heads := make([]row, len(inputs))
	ok := make([]bool, len(inputs))
	for i, in := range inputs {
		est += in.rows
		iters[i] = newSegIter(in)
		heads[i], ok[i] = iters[i].next()
	}
	b := newSegBuilder(id, dict, est)
	dropped := 0
	for {
		// Smallest head key; ties resolved toward the newest input
		// (highest index), which holds the winning row.
		win := -1
		for i := range heads {
			if !ok[i] {
				continue
			}
			if win < 0 || keyLess(heads[i].key, heads[win].key) ||
				(!keyLess(heads[win].key, heads[i].key) && i > win) {
				win = i
			}
		}
		if win < 0 {
			break
		}
		// The winner is written before its input advances: its value
		// lives in that iterator's block buffer.
		r := heads[win]
		if r.tomb && dropTombs {
			dropped++
		} else {
			b.add(r)
		}
		// Advance every input sitting on the same key; losers drop.
		for i := range heads {
			if ok[i] && heads[i].key == r.key {
				if i != win {
					dropped++
				}
				heads[i], ok[i] = iters[i].next()
			}
		}
	}
	if b.rows == 0 {
		return nil, dropped
	}
	return b.finish(), dropped
}

// RecordServe folds one run's store outcome into the stats: pairs
// served from the store, planned-resident pairs that were absent and
// recomputed, and the charged read/write bytes.
func (s *Store) RecordServe(served, missed uint64, readBytes, writeBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ServedPairs += served
	s.stats.MissedPairs += missed
	s.stats.ReadBytes += readBytes
	s.stats.WriteBytes += writeBytes
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.live
	st.LogEntries = len(s.mem.entries)
	st.Bytes = s.mem.modeled
	st.Tombstones = s.mem.tombs
	st.BlockCacheBytes = s.cache.bytes
	segCount, diskRows := 0, 0
	for _, level := range s.levels {
		if len(level) > 0 {
			st.Levels++
		}
		for _, seg := range level {
			segCount++
			st.LogEntries += seg.rows
			st.Bytes += seg.modeled
			st.Tombstones += seg.tombs
			st.IndexResidentBytes += seg.indexBytes()
			st.Blocks += len(seg.blocks)
			if seg.diskBytes > 0 {
				st.DiskBytes += seg.diskBytes
				diskRows += seg.rows
			}
		}
	}
	st.Segments = segCount
	if len(s.mem.entries) > 0 || segCount == 0 {
		st.Segments++ // the open mutable log
	}
	if diskRows > 0 {
		st.BytesPerPair = float64(st.DiskBytes) / float64(diskRows)
	}
	if st.BloomProbes > 0 {
		st.BloomHitRate = float64(st.BloomNegatives) / float64(st.BloomProbes)
	}
	return st
}

// Snapshot returns an immutable view of the store. Runs consult the
// snapshot only; concurrent appends, seals, and compactions never
// change what a snapshot reports. Taking a snapshot is O(segments): it
// pins the current mutable-log prefix and the current segment list —
// both never mutated afterward (appends go past the prefix, Seal swaps
// in a fresh log, compaction builds new segments).
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Snapshot{
		s:      s,
		mem:    s.mem,
		memLen: len(s.mem.entries),
		segs:   s.segmentsNewestFirst(),
		live:   s.live,
	}
}

// Snapshot is an immutable point-in-time view of a store. The zero
// value is an empty snapshot.
type Snapshot struct {
	s      *Store
	mem    *memtable
	memLen int
	segs   []*segment // newest first
	live   int
}

// resolve returns the winning record for k at snapshot time.
func (sn *Snapshot) resolve(k Key, wantRow bool) (Entry, bool) {
	if e, ok := sn.mem.lookup(k, sn.memLen); ok {
		return e, true
	}
	for _, seg := range sn.segs {
		if r, ok := seg.get(k, &sn.s.cache, wantRow); ok {
			return rowEntry(r), true
		}
	}
	return Entry{}, false
}

// Has reports whether k was live when the snapshot was taken.
func (sn *Snapshot) Has(k Key) bool {
	if sn == nil || sn.s == nil {
		return false
	}
	sn.s.mu.Lock()
	defer sn.s.mu.Unlock()
	e, ok := sn.resolve(k, false)
	return ok && !e.Tombstone
}

// Get returns the entry for k, if live at snapshot time.
func (sn *Snapshot) Get(k Key) (Entry, bool) {
	if sn == nil || sn.s == nil {
		return Entry{}, false
	}
	sn.s.mu.Lock()
	defer sn.s.mu.Unlock()
	e, ok := sn.resolve(k, true)
	if !ok || e.Tombstone {
		return Entry{}, false
	}
	return e, true
}

// HasMany reports, for each key, whether it was live at snapshot time,
// writing into out (which must be at least len(keys) long). It takes
// the store lock once for the whole batch — delta planners probe
// O(base²) keys at job start, where per-key locking would dominate —
// and probes sealed segments with one sorted merge-walk each over the
// block cache's key columns (predicate pushdown: segments and blocks
// are skipped by fence and dictionary, uncached blocks by bloom).
func (sn *Snapshot) HasMany(keys []Key, out []bool) {
	if sn == nil || sn.s == nil {
		for i := range keys {
			out[i] = false
		}
		return
	}
	sn.s.mu.Lock()
	defer sn.s.mu.Unlock()

	// The mutable log resolves by map lookup; unresolved keys fall
	// through to the sealed segments.
	c := &sn.s.cache
	probes := c.probes[:0]
	for i, k := range keys {
		if e, ok := sn.mem.lookup(k, sn.memLen); ok {
			out[i] = !e.Tombstone
		} else {
			out[i] = false
			probes = append(probes, probe{k, i})
		}
	}
	c.probes = probes[:0]
	if len(sn.segs) == 0 {
		return
	}
	// Sort the unresolved probes once; each segment is then a single
	// ordered merge-walk, newest segment first (first record wins).
	slices.SortFunc(probes, func(a, b probe) int { return keyCmp(a.k, b.k) })
	for _, seg := range sn.segs {
		if len(probes) == 0 {
			break
		}
		probes = seg.probeSorted(probes, out, c)
	}
}

// Len returns the number of live keys at snapshot time.
func (sn *Snapshot) Len() int {
	if sn == nil {
		return 0
	}
	return sn.live
}

// Batch collects the entries one run emits, in completion order. It is
// single-writer (the run's event loop) and merged into a Store once the
// run's results are final.
type Batch struct {
	entries []Entry
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Add appends one entry to the batch.
func (b *Batch) Add(e Entry) { b.entries = append(b.entries, e) }

// Len returns the number of collected entries.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// Bytes returns the modeled log footprint of the batch.
func (b *Batch) Bytes() int64 {
	if b == nil {
		return 0
	}
	var total int64
	for _, e := range b.entries {
		total += entryBytes(e)
	}
	return total
}

// DeltaPairs returns how many pairs a delta job over n items with base
// resident items must compute: the new-vs-all set n·(n-1)/2 − b·(b-1)/2
// (every pair touching at least one appended item).
func DeltaPairs(n, base int) int64 {
	if base > n {
		base = n
	}
	if base < 0 {
		base = 0
	}
	t := func(m int) int64 { return int64(m) * int64(m-1) / 2 }
	return t(n) - t(base)
}
