package pairstore

import "math/bits"

// digestSet is the set of item digests the sealed segments' dictionaries
// hold between them: a key with a digest outside it is in no segment,
// since a row lives only in a segment whose dictionary holds both of its
// digests. Point probes ask it first, so the pairs of a newly appended
// item cost two set lookups instead of a bloom test per segment. It is
// an open-addressed table at most half full, 0 marking an empty slot
// (digest 0 itself is the zero flag).
type digestSet struct {
	slots []uint64
	shift uint // 64 − log₂ len(slots)
	n     int
	zero  bool
}

func (d *digestSet) slot(v uint64) int {
	return int(v * 0x9e3779b97f4a7c15 >> d.shift)
}

func (d *digestSet) has(v Digest) bool {
	if v == 0 || len(d.slots) == 0 {
		return v == 0 && d.zero
	}
	mask := len(d.slots) - 1
	for i := d.slot(uint64(v)); d.slots[i] != 0; i = (i + 1) & mask {
		if d.slots[i] == uint64(v) {
			return true
		}
	}
	return false
}

func (d *digestSet) add(v uint64) {
	if v == 0 {
		d.zero = true
		return
	}
	if 2*(d.n+1) > len(d.slots) {
		old := d.slots
		d.resize(max(64, 2*len(old)))
		for _, w := range old {
			if w != 0 {
				d.add(w)
			}
		}
	}
	mask := len(d.slots) - 1
	i := d.slot(v)
	for ; d.slots[i] != 0; i = (i + 1) & mask {
		if d.slots[i] == v {
			return
		}
	}
	d.slots[i] = v
	d.n++
}

// resize replaces the table with an empty one of n slots.
func (d *digestSet) resize(n int) {
	d.slots, d.n = nil, 0
	if n > 0 {
		d.slots, d.shift = make([]uint64, n), uint(64-bits.Len(uint(n-1)))
	}
}

// rebuild makes the set the union of the segments' dictionaries. The
// table is sized for the largest dictionary, which in an all-pairs store
// is nearly the union, and kept when that size has not changed.
func (d *digestSet) rebuild(levels [][]*segment) {
	most := 0
	for _, level := range levels {
		for _, seg := range level {
			most = max(most, len(seg.dict))
		}
	}
	n := 0
	if most > 0 {
		n = 64
		for n < 2*most {
			n *= 2
		}
	}
	if n == len(d.slots) {
		clear(d.slots)
	} else {
		d.resize(n)
	}
	d.n, d.zero = 0, false
	for _, level := range levels {
		for _, seg := range level {
			for _, v := range seg.dict {
				d.add(v)
			}
		}
	}
}

// sizeBytes is the set's resident footprint.
func (d *digestSet) sizeBytes() int64 { return int64(len(d.slots) * 8) }
