package pairstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"rocket/internal/testutil"
)

// rowReadRows builds n distinct-key rows over a universe of digests that
// serves both key columns, so a universe of u makes a dictionary of u
// digests, ⌈log₂ u⌉ bits wide. A quarter of the rows are tombstones;
// the others carry a value of 0–64 bytes.
func rowReadRows(seed int64, n, universe int) []row {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Key]bool, n)
	rows := make([]row, 0, n)
	for len(rows) < n {
		k := Key{
			A: Digest(uint64(rng.Intn(universe))*0x9e3779b97f4a7c15 + 1),
			B: Digest(uint64(rng.Intn(universe))*0x9e3779b97f4a7c15 + 1),
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		r := row{key: k, ver: rng.Intn(1 << uint(rng.Intn(20)))}
		if rng.Intn(4) == 0 {
			r.tomb = true
		} else {
			r.val = make([]byte, rng.Intn(65))
			rng.Read(r.val)
		}
		rows = append(rows, r)
	}
	return rows
}

// rowReadsMatch reads row i of block blk of seg twice, once placed by
// the key columns (r = i) and once searched for, and compares both with
// the full decode d's row i. walk reads a row of the block.
func rowReadsMatch(d *decodedBlock, seg *segment, i int, walk func(k Key, r int) (row, bool, error)) error {
	want := seg.rowAt(d, i)
	for _, r := range []int{i, -1} {
		got, ok, err := walk(want.key, r)
		if err != nil || !ok || !sameRow(got, want) {
			return fmt.Errorf("row %d (r=%d): read %+v, found=%v, err=%v; full decode %+v", i, r, got, ok, err, want)
		}
	}
	return nil
}

// TestRowReadMatchesFullDecode: the one-row walk reads every row as the
// full decode does, whether the key columns place it or the walk
// searches for it, over dictionaries from 0 to 12 bits wide, values of
// 0–64 bytes, tombstones, and 1-row to 4 096-row blocks; and a key
// inside a block's fences whose digests the dictionary holds but which
// no row has reads absent, without error: the keys one dictionary
// index from every other row's.
func TestRowReadMatchesFullDecode(t *testing.T) {
	for _, tc := range []struct{ n, universe int }{
		{1, 1},                         // width 0: one self-pair
		{3, 2},                         // width 1
		{20, 5},                        // width 3
		{blockRows, 70},                // one full block, width 7
		{blockRows + 1, 2100},          // a full block and a 1-row block, width 12
		{blockRows / 2, blockRows * 4}, // one row per A run, about; width 12
	} {
		seg := buildSegment(1, rowReadRows(int64(tc.n*tc.universe), tc.n, tc.universe))
		width := bitWidth(uint64(len(seg.dict) - 1))
		var z inflater
		reads, absent := 0, 0
		for blk := range seg.blocks {
			d, err := seg.decodeBlock(blk, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			held := make(map[Key]bool, len(d.aIdx))
			for i := range d.aIdx {
				held[seg.rowAt(d, i).key] = true
			}
			// The walk over the block's payload, inflated once, for every
			// row; readRow, which inflates it each time, for the first and
			// the last.
			br, rows, err := seg.blockPayload(blk, &z)
			if err != nil {
				t.Fatal(err)
			}
			walk := func(k Key, r int) (row, bool, error) { return seg.walkRow(blk, br.b, br.off, rows, k, r) }
			read := func(k Key, r int) (row, bool, error) { return seg.readRow(blk, k, r, &inflater{}) }
			m := seg.blocks[blk]
			for i := range d.aIdx {
				if err := rowReadsMatch(d, seg, i, walk); err != nil {
					t.Fatalf("n=%d width %d block %d: %v", tc.n, width, blk, err)
				}
				if i == 0 || i == rows-1 {
					if err := rowReadsMatch(d, seg, i, read); err != nil {
						t.Fatalf("n=%d width %d block %d: readRow: %v", tc.n, width, blk, err)
					}
				}
				if reads++; i%2 == 1 {
					continue
				}
				a, b := d.aIdx[i], d.bIdx[i]
				for _, ab := range [][2]uint64{{a, b + 1}, {a, b - 1}, {a + 1, b}, {a - 1, b}} {
					if ab[0] >= uint64(len(seg.dict)) || ab[1] >= uint64(len(seg.dict)) {
						continue
					}
					k := Key{A: Digest(seg.dict[ab[0]]), B: Digest(seg.dict[ab[1]])}
					if held[k] || keyLess(k, m.first) || keyLess(m.last, k) {
						continue
					}
					if got, ok, err := walk(k, -1); ok || err != nil {
						t.Fatalf("n=%d width %d: absent %v in block %d reads %+v, found=%v, err=%v", tc.n, width, k, blk, got, ok, err)
					}
					absent++
				}
			}
		}
		if tc.n >= 20 && absent == 0 {
			t.Fatalf("n=%d width %d: no absent key inside the fences", tc.n, width)
		}
		t.Logf("n=%d: width %d, %d blocks, %d rows read, %d absent keys", tc.n, width, len(seg.blocks), reads, absent)
	}
}

// rowReadFailsClosed: a block a decoder refuses must not give the walk a
// row, for its fence keys placed by row or searched for: the walk reads
// them absent or fails with a *CorruptError.
func rowReadFailsClosed(seg *segment, blk int) error {
	m := seg.blocks[blk]
	for _, c := range []struct {
		k Key
		r int
	}{{m.first, 0}, {m.first, -1}, {m.last, m.rows - 1}, {m.last, -1}} {
		got, ok, err := seg.readRow(blk, c.k, c.r, &inflater{})
		var ce *CorruptError
		if ok || err != nil && !errors.As(err, &ce) {
			return fmt.Errorf("block %d: a refused block reads %v (r=%d) as %+v, found=%v, err=%v", blk, c.k, c.r, got, ok, err)
		}
	}
	return nil
}

// rawFramed returns a copy of seg whose block blk is payload framed as
// a raw block with a valid checksum: damage to payload then reaches the
// column decoders, which no check of the container stands in front of.
func rawFramed(seg *segment, blk int, payload []byte) *segment {
	frame := putUvarint(putUvarint([]byte{codecRaw}, uint64(len(payload))), uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	mut := *seg
	mut.data = append(frame, payload...)
	mut.blocks = slices.Clone(seg.blocks)
	mut.blocks[blk].off, mut.blocks[blk].length = 0, len(mut.data)
	return &mut
}

// walkDamagedPayload walks every 61st row and the last of block blk of
// seg with its inflated payload replaced by payload, a damaged copy,
// framed raw (rawFramed). No walk may panic. Where decodeBlock accepts
// the payload, the walk must read each row as it does: placed by row,
// and searched for when the damage left the keys ascending. Where
// decodeBlock refuses it, a walk may still read a row, because it does
// not check the columns past its row (rowread.go).
func walkDamagedPayload(seg *segment, blk int, payload []byte) error {
	mut := rawFramed(seg, blk, payload)
	var z inflater
	walk := func(k Key, r int) (row, bool, error) { return mut.readRow(blk, k, r, &z) }
	d, err := mut.decodeBlock(blk, nil, nil)
	if err != nil {
		m := seg.blocks[blk]
		for _, k := range []Key{m.first, m.last} {
			for r := -1; r < m.rows; r += 61 {
				walk(k, r)
			}
		}
		return nil
	}
	keys := make([]Key, len(d.aIdx))
	for i := range keys {
		keys[i] = mut.rowAt(d, i).key
	}
	ascending := slices.IsSortedFunc(keys, func(a, b Key) int {
		if keyLess(a, b) {
			return -1
		}
		return 1
	})
	for i := 0; i < len(keys); i = min(i+61, len(keys)-1) {
		want := mut.rowAt(d, i)
		for _, r := range []int{i, -1} {
			if r < 0 && !ascending {
				continue
			}
			if got, ok, err := walk(want.key, r); err != nil || !ok || !sameRow(got, want) {
				return fmt.Errorf("block %d row %d (r=%d) of an accepted damaged payload: read %+v, found=%v, err=%v; full decode %+v", blk, i, r, got, ok, err, want)
			}
		}
		if i == len(keys)-1 {
			break
		}
	}
	return nil
}

// TestRowReadRefusesOverlongVarints: a raw block whose version or
// value-length column opens with a varint too long for 64 bits (ten
// 0xff bytes, or nine and then a 0x02) is refused by the walk for every
// row, with a *CorruptError and without a panic, as decodeBlock refuses
// it.
func TestRowReadRefusesOverlongVarints(t *testing.T) {
	seg := buildSegment(1, rowReadRows(5, 40, 9))
	p, err := decompressBlock(seg.data[:seg.blocks[0].length], nil)
	if err != nil {
		t.Fatal(err)
	}
	// The column offsets: the row count, n A deltas, the bit-packed B
	// column and the tombstone bitmap, then n versions and n lengths.
	n := seg.blocks[0].rows
	skip := func(off, count int) int {
		for ; count > 0; count-- {
			_, l := binary.Uvarint(p[off:])
			off += l
		}
		return off
	}
	width := bitWidth(uint64(len(seg.dict) - 1))
	vers := skip(skip(0, 1), n) + (n*int(width)+7)/8 + (n+7)/8
	lens := skip(vers, n)
	overlong := [][]byte{
		bytes.Repeat([]byte{0xff}, 10),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
	}
	for _, col := range []struct {
		name string
		off  int
	}{{"version", vers}, {"value-length", lens}} {
		for _, bad := range overlong {
			_, l := binary.Uvarint(p[col.off:])
			mut := slices.Concat(p[:col.off], bad, p[col.off+l:])
			dmg := rawFramed(seg, 0, mut)
			if _, err := dmg.decodeBlock(0, nil, nil); err == nil {
				t.Fatalf("%s column % x: decodeBlock accepts it", col.name, bad)
			}
			d, err := seg.decodeBlock(0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				k := seg.rowAt(d, i).key
				for _, r := range []int{i, -1} {
					got, ok, err := dmg.readRow(0, k, r, &inflater{})
					var ce *CorruptError
					if ok || !errors.As(err, &ce) {
						t.Fatalf("%s column % x, row %d (r=%d): read %+v, found=%v, err=%v; want a *CorruptError", col.name, bad, i, r, got, ok, err)
					}
				}
			}
		}
	}
}

// getHitStore is a store of three sealed segments whose keys alternate
// between an empty value and an 18-byte one, and its keys.
func getHitStore() (*Store, []Key) {
	digest := DigestFunc("gets", "forensics", 1)
	s := New()
	var keys []Key
	for n, j := 0, 1; j < 160; j++ {
		for i := 0; i < j; i++ {
			e := Entry{Key: Key{A: digest(i), B: digest(j)}, Version: j}
			if n++; n%2 == 0 {
				e.Value = json.RawMessage(fmt.Sprintf(`{"i":%4d,"j":%4d}`, i, j))
			}
			s.Put(e)
			keys = append(keys, e.Key)
		}
		if j%60 == 0 {
			s.Seal()
		}
	}
	s.Seal()
	return s, keys
}

// TestGetHitAllocatesNothing: a warm Get hit, from the store or from a
// snapshot, answered by the key-column cache or by a residency index,
// allocates nothing for a key without a value and exactly the value's
// copy for one with, and inflates exactly one block.
func TestGetHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	s, keys := getHitStore()
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("%d segments, want at least 3", st.Segments)
	}
	snap := s.Snapshot()
	gets := map[string]func(Key) (Entry, bool){"Store.Get": s.Get, "Snapshot.Get": snap.Get}
	check := func(how string) {
		for _, name := range []string{"Store.Get", "Snapshot.Get"} {
			get := gets[name]
			for _, k := range keys[len(keys)/3 : len(keys)/3+2] {
				e, ok := get(k) // warm: the block's key columns are cached
				if !ok {
					t.Fatalf("%s %s: %v absent", how, name, k)
				}
				want := uint64(0)
				if len(e.Value) > 0 {
					want = 1
				}
				before := s.Stats().BlockDecodes
				objs, _ := testutil.Allocs(func() { e, _ = get(k) }, 3)
				if objs != want {
					t.Errorf("%s %s: a hit with a %d-byte value allocated %d objects, want %d", how, name, len(e.Value), objs, want)
				}
				if d := s.Stats().BlockDecodes - before; d != 3 {
					t.Errorf("%s %s: 3 hits inflated %d blocks, want 3", how, name, d)
				}
			}
		}
	}
	check("key columns")
	snap.HasMany(keys, make([]bool, len(keys))) // build the indexes
	if st := s.Stats(); st.IndexResidentBytes == 0 {
		t.Fatal("HasMany built no residency index")
	}
	check("residency index")
}
