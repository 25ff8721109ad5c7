package pairstore

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"
)

// keyCmp is keyLess as a three-way compare: the comparison sort
// FuzzSortKeys holds sortKeys to.
func keyCmp(a, b Key) int {
	switch {
	case a.A < b.A, a.A == b.A && a.B < b.B:
		return -1
	case a == b:
		return 0
	}
	return 1
}

// sortInput turns fuzz bytes into 0–5 000 keys. The first two bytes give
// the count, the third the number of digests (1–32), and a hash of the
// rest seeds the draws. Digest i equals a fixed base up to byte i mod 8
// and is pseudo-random from there on, so the digests share prefixes of
// every length and the sort meets every digit position, buckets whose
// keys share that digit, and buckets of every size around the cutoff.
// With 5 000 keys over at most 1 024 pairs of digests, keys repeat.
func sortInput(raw []byte) []Key {
	var n, m int
	if len(raw) >= 2 {
		n = int(binary.LittleEndian.Uint16(raw)) % 5001
	}
	if len(raw) >= 3 {
		m = int(raw[2] % 32)
	}
	h := fnv.New64a()
	h.Write(raw)
	seed := h.Sum64()
	next := func() uint64 { // splitmix64
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	const base = 0x8877665544332211
	pool := make([]Digest, m+1)
	for i := range pool {
		keep := 8 * uint(i%8) // high bits of base kept
		low := ^uint64(0) >> keep
		pool[i] = Digest(base&^low | next()&low)
	}
	keys := make([]Key, n)
	for i := range keys {
		r := next()
		keys[i] = Key{A: pool[r%uint64(len(pool))], B: pool[r>>32%uint64(len(pool))]}
	}
	return keys
}

// FuzzSortKeys holds the radix sort to a comparison sort on the seal's
// records: the keys must come out in keyCmp order, and every record must
// come out whole, exactly once.
func FuzzSortKeys(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, radixCutoff, radixCutoff + 1, 300, 5000} {
		for _, m := range []byte{0, 1, 7, 31} {
			f.Add(append(binary.LittleEndian.AppendUint16(nil, n), m))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys := sortInput(raw)
		want := slices.Clone(keys)
		slices.SortFunc(want, keyCmp)

		recs := make([]sealRec, len(keys))
		for i, k := range keys {
			recs[i] = sealRec{key: k, ver: 3 * i, pos: int32(i), tomb: i%2 == 0, val: i%3 == 0}
		}
		sortKeys(recs)
		seen := make([]bool, len(keys))
		for j := range want {
			r := recs[j]
			if r.key != want[j] {
				t.Fatalf("%d keys: at %d record %x, want %x", len(keys), j, r.key, want[j])
			}
			i := int(r.pos)
			if seen[i] || keys[i] != r.key || r.ver != 3*i || r.tomb != (i%2 == 0) || r.val != (i%3 == 0) {
				t.Fatalf("record %d at %d duplicated or torn: %+v", i, j, r)
			}
			seen[i] = true
		}
	})
}
