package pairstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// storeModel is the reference the differential test holds a Store to:
// the live keys in a map, plus the log-structured shape — the mutable
// log in append order, levels of sealed segments as maps — from which
// the Stats counters follow. It restates the seal and tiering rules in
// the plainest terms, so any faster write path must still agree with it.
type storeModel struct {
	live     map[Key]Entry
	log      []Entry
	levels   [][]map[Key]Entry // as Store.levels: oldest first within a level
	away     int               // CompactedAway
	autoSeal int
}

func (m *storeModel) put(e Entry) bool {
	if _, ok := m.live[e.Key]; ok {
		return false
	}
	e.Tombstone = false
	m.live[e.Key] = e
	m.log = append(m.log, e)
	if len(m.log) >= m.autoSeal {
		m.seal()
	}
	return true
}

func (m *storeModel) del(k Key) bool {
	if _, ok := m.live[k]; !ok {
		return false
	}
	delete(m.live, k)
	m.log = append(m.log, Entry{Key: k, Tombstone: true})
	return true
}

func (m *storeModel) segments() int {
	n := 0
	for _, level := range m.levels {
		n += len(level)
	}
	return n
}

// seal collapses the log to its latest record per key; a tombstone is
// kept only while some segment could hold what it shadows.
func (m *storeModel) seal() {
	if len(m.log) == 0 {
		return
	}
	seg := make(map[Key]Entry)
	for _, e := range m.log {
		if _, ok := seg[e.Key]; ok {
			m.away++
		}
		seg[e.Key] = e
	}
	if m.segments() == 0 {
		for k, e := range seg {
			if e.Tombstone {
				m.away++
				delete(seg, k)
			}
		}
	}
	m.log = nil
	if len(seg) > 0 {
		if len(m.levels) == 0 {
			m.levels = append(m.levels, nil)
		}
		m.levels[0] = append(m.levels[0], seg)
	}
	for l := 0; l < len(m.levels); l++ {
		if len(m.levels[l]) < compactFanout {
			continue
		}
		inputs := m.levels[l]
		m.levels[l] = nil
		if l+1 == len(m.levels) {
			m.levels = append(m.levels, nil)
		}
		if merged := m.merge(inputs, m.segmentsFrom(l+1) == 0); len(merged) > 0 {
			m.levels[l+1] = append(m.levels[l+1], merged)
		}
	}
}

func (m *storeModel) segmentsFrom(l int) int {
	n := 0
	for ; l < len(m.levels); l++ {
		n += len(m.levels[l])
	}
	return n
}

// merge folds inputs (oldest first) into one segment: the newest record
// of a key wins, and dropTombs removes the winning tombstones.
func (m *storeModel) merge(inputs []map[Key]Entry, dropTombs bool) map[Key]Entry {
	out := make(map[Key]Entry)
	for _, in := range inputs {
		for k, e := range in {
			if _, ok := out[k]; ok {
				m.away++
			}
			out[k] = e
		}
	}
	for k, e := range out {
		if e.Tombstone && dropTombs {
			m.away++
			delete(out, k)
		}
	}
	return out
}

func (m *storeModel) compact() int {
	before := m.away
	m.seal()
	var inputs []map[Key]Entry
	for l := len(m.levels) - 1; l >= 0; l-- {
		inputs = append(inputs, m.levels[l]...)
	}
	tombs := 0
	if len(inputs) == 1 {
		for _, e := range inputs[0] {
			if e.Tombstone {
				tombs++
			}
		}
	}
	switch {
	case len(inputs) == 0:
		m.levels = nil
	case len(inputs) == 1 && tombs == 0:
		m.levels = [][]map[Key]Entry{inputs}
	default:
		m.levels = nil
		if merged := m.merge(inputs, true); len(merged) > 0 {
			m.levels = [][]map[Key]Entry{{merged}}
		}
	}
	return m.away - before
}

// stats is what Stats must report for the four counters the model
// tracks: Entries, LogEntries, Tombstones, CompactedAway.
func (m *storeModel) stats() [4]int {
	st := [4]int{len(m.live), len(m.log), 0, m.away}
	for _, e := range m.log {
		if e.Tombstone {
			st[2]++
		}
	}
	for _, level := range m.levels {
		for _, seg := range level {
			st[1] += len(seg)
			for _, e := range seg {
				if e.Tombstone {
					st[2]++
				}
			}
		}
	}
	return st
}

// modelDigests spans both ends of the digest space and a few avalanched
// values; the model's 64 keys pair them every way, so puts collide
// often and the open-addressed index sees both well-spread and
// degenerate hashes.
var modelDigests = [8]Digest{0, 1, 2, 1 << 63, 1<<63 | 1, ^Digest(0),
	DigestItem("model", "app", 1, 0), DigestItem("model", "app", 1, 1)}

func modelKey(b byte) Key {
	return Key{A: modelDigests[b&7], B: modelDigests[b>>3&7]}
}

// modelProbe is every model key plus two the program never writes.
var modelProbe = func() []Key {
	keys := make([]Key, 0, 66)
	for b := 0; b < 64; b++ {
		keys = append(keys, modelKey(byte(b)))
	}
	return append(keys, Key{A: 3, B: 3}, Key{A: ^Digest(0), B: 7})
}()

// view is what a Store and a Snapshot both answer.
type view interface {
	Get(Key) (Entry, bool)
	has(Key) bool
	Len() int
}

// checkView compares v against the live map: Len, HasMany on every
// probe key, has on has and Get on gets. Point probes are kept off the
// hot loop where they are dear — Get inflates a block per sealed hit,
// and a snapshot's probe into a segment compaction replaced inflates
// one too.
func checkView(t *testing.T, what string, live map[Key]Entry, v view, hasMany func([]Key, []bool), has, gets []Key) {
	t.Helper()
	if v.Len() != len(live) {
		t.Fatalf("%s: Len %d, model %d", what, v.Len(), len(live))
	}
	out := make([]bool, len(modelProbe))
	hasMany(modelProbe, out)
	for i, k := range modelProbe {
		if _, ok := live[k]; out[i] != ok {
			t.Fatalf("%s: HasMany(%v) = %v, model %v", what, k, out[i], ok)
		}
	}
	for _, k := range has {
		if _, ok := live[k]; v.has(k) != ok {
			t.Fatalf("%s: has(%v) = %v, model %v", what, k, v.has(k), ok)
		}
	}
	for _, k := range gets {
		want, ok := live[k]
		got, gok := v.Get(k)
		if gok != ok || ok && (got.Key != k || got.Version != want.Version ||
			string(got.Value) != string(want.Value) || got.Tombstone) {
			t.Fatalf("%s: Get(%v) = %+v, %v; model %+v, %v", what, k, got, gok, want, ok)
		}
	}
}

// modelAutoSeal maps a program's first byte to its auto-seal threshold:
// 1 to 17 below 0x80, so seals land inside Merges, and 64 to 512 from
// 0x80, so the log outgrows its first index table.
func modelAutoSeal(b byte) int {
	if b >= 0x80 {
		return 64 << (b & 3)
	}
	return 1 + int(b)%17
}

// checkStoreOps interprets prog as an op program — the first byte picks
// the auto-seal threshold (modelAutoSeal), then each op byte and its operands:
// Put (with or without a value), Delete, Merge of up to 12 entries with
// duplicates, Seal, Compact, Snapshot — and runs it against a Store and
// the model, comparing the store and every live snapshot after every op.
// Snapshots are checked against the model's copy from when they were
// taken, through every later seal and compaction.
func checkStoreOps(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	m := &storeModel{live: make(map[Key]Entry), autoSeal: modelAutoSeal(prog[0])}
	s := New()
	s.SetAutoSealThreshold(m.autoSeal)
	type snap struct {
		sn   *Snapshot
		live map[Key]Entry
	}
	var snaps []snap
	pos := 1
	next := func() byte {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return prog[pos-1]
	}
	var touched []Key
	entry := func(step int) Entry {
		b := next()
		e := Entry{Key: modelKey(b), Version: step}
		touched = append(touched, e.Key)
		if b&0x40 != 0 {
			e.Value = []byte(fmt.Sprintf(`{"v":%d}`, step))
		}
		return e
	}
	for step := 0; pos < len(prog) && step < 512; step++ {
		op := next()
		var what string
		touched = touched[:0]
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			e := entry(step)
			what = fmt.Sprintf("Put(%v)", e.Key)
			if got, want := s.Put(e), m.put(e); got != want {
				t.Fatalf("step %d: %s = %v, model %v", step, what, got, want)
			}
		case 6, 7:
			k := modelKey(next())
			touched = append(touched, k)
			what = fmt.Sprintf("Delete(%v)", k)
			if got, want := s.retract(k), m.del(k); got != want {
				t.Fatalf("step %d: %s = %v, model %v", step, what, got, want)
			}
		case 8, 9:
			b := NewBatch()
			for n := 1 + int(next())%12; n > 0; n-- {
				b.Add(entry(step))
			}
			want := 0
			for _, e := range b.entries {
				if m.put(e) {
					want++
				}
			}
			what = fmt.Sprintf("Merge of %d", b.Len())
			if got := s.Merge(b); got != want {
				t.Fatalf("step %d: %s added %d, model %d", step, what, got, want)
			}
		case 10:
			what = "Seal"
			s.Seal()
			m.seal()
		case 11:
			what = "Compact"
			if got, want := s.Compact(), m.compact(); got != want {
				t.Fatalf("step %d: Compact dropped %d, model %d", step, got, want)
			}
		default:
			what = "Snapshot"
			live := make(map[Key]Entry, len(m.live))
			for k, e := range m.live {
				live[k] = e
			}
			if snaps = append(snaps, snap{s.Snapshot(), live}); len(snaps) > 3 {
				snaps = snaps[1:]
			}
		}
		at := fmt.Sprintf("step %d (%s, auto-seal %d)", step, what, m.autoSeal)
		st := s.Stats()
		if got, want := [4]int{st.Entries, st.LogEntries, st.Tombstones, int(st.CompactedAway)}, m.stats(); got != want {
			t.Fatalf("%s: Stats {Entries, LogEntries, Tombstones, CompactedAway} = %v, model %v", at, got, want)
		}
		gets := touched
		if what == "Seal" || what == "Compact" {
			gets = modelProbe
		}
		checkView(t, at, m.live, s, func(keys []Key, out []bool) { s.Snapshot().HasMany(keys, out) }, modelProbe, gets)
		for i, sn := range snaps {
			checkView(t, fmt.Sprintf("%s, snapshot %d", at, i), sn.live, sn.sn, sn.sn.HasMany, nil, nil)
		}
	}
	for i, sn := range snaps {
		checkView(t, fmt.Sprintf("end, snapshot %d", i), sn.live, sn.sn, sn.sn.HasMany, modelProbe, modelProbe)
	}
}

// TestStoreMatchesMapModel runs seeded random op programs at every
// auto-seal threshold from 1 to 17, so seals land inside Merges and
// tier merges cascade, against the map model. Churn programs follow at
// thresholds 64 to 512 with no explicit Seal or Compact: their first
// two thirds are Puts and Deletes over eight keys, so superseded entries
// pile up, and the last third's new keys double the index past them.
func TestStoreMatchesMapModel(t *testing.T) {
	seeds := int64(3)
	if raceEnabled {
		seeds = 1 // ten times slower, and run by make test as well as race-stress
	}
	for thr := 0; thr < 17; thr++ {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed*17 + int64(thr)))
			prog := make([]byte, 1+300)
			rng.Read(prog)
			prog[0] = byte(thr)
			t.Run(fmt.Sprintf("autoseal%d/seed%d", thr+1, seed), func(t *testing.T) {
				checkStoreOps(t, prog)
			})
		}
	}
	for thr := 0; thr < 4; thr++ {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed*4 + int64(thr)))
			prog := make([]byte, 1+400)
			rng.Read(prog)
			prog[0] = 0x80 | byte(thr)
			for i := 1; i < len(prog); i++ {
				if i <= 2*len(prog)/3 {
					prog[i] &= 0x47 // ops 0-7 (Put, Delete), keys {A: any, B: digest 0}
				} else if op := prog[i] % 16; op == 10 || op == 11 {
					prog[i] += 2 // Seal and Compact become Snapshots
				}
			}
			t.Run(fmt.Sprintf("churn/autoseal%d/seed%d", 64<<thr, seed), func(t *testing.T) {
				checkStoreOps(t, prog)
			})
		}
	}
}

// FuzzStoreOps drives the model harness from fuzz bytes (seed corpus
// under testdata/fuzz/FuzzStoreOps).
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x01, 0x06, 0x00, 0x0a, 0x00, 0x00, 0x0b})
	f.Add([]byte{3, 0x08, 0x0b, 0x01, 0x02, 0x01, 0x40, 0x09, 0x0c, 0x08, 0x05})
	f.Fuzz(checkStoreOps)
}
