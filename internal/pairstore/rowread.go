package pairstore

// The point read: one row of a block, read from its inflated payload
// without decoding the block. A Get hit needs one row's version and
// value, but the payload's varint columns have no row offsets, so a full
// decode (decodeBlock) turns all 4 096 rows of every column into fresh
// slices to use one. The walk reads each column only as far as the row
// and skips the rest of a varint column by counting the bytes that end
// a varint (those below 0x80), eight at a time.
//
// The walk refuses what it reads that decodeBlock would refuse, but it
// does not read all that decodeBlock checks: the version and
// value-length varints past its row, value lengths past its row against
// the payload, and of the key columns all but the A deltas up to the
// key's run (none of them when the key columns gave the row). A Get walks a block only after
// decodeKeyCols has accepted the same bytes, for the key-column cache or
// the residency index, and that checks the key columns and the
// tombstone bitmap in full; the tail of the version and value-length
// columns has only the payload's CRC-32 behind it.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// readRow reads the row keyed k from block blk, inflating the payload
// into z. With r ≥ 0 (the key columns placed k at row r) the key columns
// are skipped; otherwise the A column is read to the end of k's run and
// the run binary-searched in the bit-packed B column. The version and
// value-length columns are read to the row. The checksum, the declared
// lengths and the tombstone bitmap are checked as decodeBlock checks
// them. found is false when the block holds no row keyed k. The row's
// value aliases z's buffer (or the segment's data) until z's next use.
func (s *segment) readRow(blk int, k Key, r int, z *inflater) (row, bool, error) {
	br, n, err := s.blockPayload(blk, z)
	if err != nil {
		return row{}, false, err
	}
	return s.walkRow(blk, br.b, br.off, n, k, r)
}

// walkRow is readRow's walk over block blk's n-row payload p, whose
// columns start at off.
func (s *segment) walkRow(blk int, p []byte, off, n int, k Key, r int) (got row, found bool, err error) {
	dn := uint64(len(s.dict))
	width := bitWidth(dn - 1)
	bBytes, tBytes := (n*int(width)+7)/8, (n+7)/8
	if r >= 0 {
		if r >= n {
			return row{}, false, corrupt("block", "row %d of a %d-row block", r, n)
		}
		if off, err = skipVarints(p, off, n); err != nil {
			return row{}, false, err
		}
	} else {
		ai, okA := slices.BinarySearch(s.dict, uint64(k.A))
		bi, okB := slices.BinarySearch(s.dict, uint64(k.B))
		if !okA || !okB {
			return row{}, false, nil
		}
		lo, hi, end, err := aRun(p, off, n, uint64(ai), dn)
		if err != nil || lo == hi {
			return row{}, false, err
		}
		if off = end; len(p)-off < bBytes {
			return row{}, false, corrupt("block", "bit-packed column truncated: need %d bytes, have %d", bBytes, len(p)-off)
		}
		col, mask, want := p[off:], widthMask(width), uint64(bi)
		for end := hi; lo < end; {
			if mid := int(uint(lo+end) / 2); bitsAt(col, uint(mid)*width, mask) < want {
				lo = mid + 1
			} else {
				end = mid
			}
		}
		if lo == hi || bitsAt(col, uint(lo)*width, mask) != want {
			return row{}, false, nil
		}
		r = lo
	}
	if len(p)-off < bBytes+tBytes {
		return row{}, false, corrupt("block", "truncated: need %d bytes at offset %d of %d", bBytes+tBytes, off, len(p))
	}
	tomb := p[off+bBytes : off+bBytes+tBytes]
	if err := s.checkTombs(blk, tomb); err != nil {
		return row{}, false, err
	}
	off += bBytes + tBytes
	got = row{key: k, tomb: tomb[r/8]&(1<<(r%8)) != 0}

	// Versions are zigzag deltas and value lengths plain varints, each
	// column read to the row and skipped past the rest; the lengths
	// before row r sum to the value's offset.
	deltas, last, off, err := varintRun(p, off, r+1, math.MaxUint64, true)
	if err != nil {
		return row{}, false, err
	}
	got.ver = int(int64(deltas + last))
	if off, err = skipVarints(p, off, n-r-1); err != nil {
		return row{}, false, err
	}
	at, l, off, err := varintRun(p, off, r+1, uint64(len(p)), false)
	if err != nil {
		return row{}, false, err
	}
	if off, err = skipVarints(p, off, n-r-1); err != nil {
		return row{}, false, err
	}
	if rest := uint64(len(p) - off); at > rest || l > rest-at {
		return row{}, false, corrupt("block", "row %d value [%d,%d) exceeds the %d remaining bytes", r, at, at+l, rest)
	}
	if l > 0 {
		got.val = p[off+int(at) : off+int(at+l)]
	}
	return got, true, nil
}

// aRun finds the rows [lo, hi) of the A column at off whose dictionary
// index is a (lo == hi when there are none), decoding the column up to
// the row after the run and skipping the rest. end is the offset just
// past the column.
func aRun(p []byte, off, n int, a, dn uint64) (lo, hi, end int, err error) {
	var cur uint64
	i := 0
	for ; i < n; i++ {
		var d uint64
		if off < len(p) && p[off] < 0x80 {
			d, off = uint64(p[off]), off+1
		} else if d, off = uvarintAt(p, off); off < 0 {
			return 0, 0, 0, corrupt("block", "row %d: malformed uvarint", i)
		}
		if d >= dn-cur {
			return 0, 0, 0, corrupt("block", "row %d references dictionary index beyond %d", i, dn)
		}
		cur += d
		if cur >= a {
			break
		}
	}
	if i == n || cur != a {
		return 0, 0, 0, nil
	}
	// The run's other rows are zero deltas, one byte each.
	lo, hi = i, i+1
	for hi < n && off < len(p) && p[off] == 0 {
		hi, off = hi+1, off+1
	}
	if end, err = skipVarints(p, off, n-hi); err != nil {
		return 0, 0, 0, err
	}
	return lo, hi, end, nil
}

// varintRun reads the count ≥ 1 varints at p[off:], each at most
// limit, and returns the sum of all but the last, the last, and the
// offset past them. With zigzag set each is a signed delta, zigzag
// encoded, and the sum wraps as int64 addition does. The walk's per-row
// loops read a one-byte varint inline and call uvarintAt, which the
// compiler does not inline, only for longer ones.
func varintRun(p []byte, off, count int, limit uint64, zigzag bool) (sum, last uint64, end int, err error) {
	for i := 0; i < count; i++ {
		sum += last
		if off < len(p) && p[off] < 0x80 {
			last, off = uint64(p[off]), off+1
		} else if last, off = uvarintAt(p, off); off < 0 {
			return 0, 0, 0, corrupt("block", "row %d: malformed varint", i)
		}
		if last > limit {
			return 0, 0, 0, corrupt("block", "row %d: %d exceeds the %d-byte payload", i, last, limit)
		}
		if zigzag {
			last = uint64(int64(last>>1) ^ -int64(last&1))
		}
	}
	return sum, last, off, nil
}

// uvarintAt decodes the unsigned varint at p[off:], returning it and the
// offset past it, or a negative offset when it is malformed.
func uvarintAt(p []byte, off int) (uint64, int) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// skipVarints returns the offset past the next count varints of p[off:],
// counting the bytes that end one (below 0x80). A word holds at most
// eight, so while eight or more remain a whole word is counted at once.
func skipVarints(p []byte, off, count int) (int, error) {
	for count >= 8 && off+8 <= len(p) {
		count -= bits.OnesCount64(^binary.LittleEndian.Uint64(p[off:]) & 0x8080808080808080)
		off += 8
	}
	for ; count > 0 && off < len(p); off++ {
		if p[off] < 0x80 {
			count--
		}
	}
	if count > 0 {
		return 0, corrupt("block", "payload ends %d varints short", count)
	}
	return off, nil
}

// bitsAt returns the bit-packed value at bit offset bit of col, masked
// to its width; bytes past col's end read as zero.
func bitsAt(col []byte, bit uint, mask uint64) uint64 {
	i := int(bit / 8)
	var w uint64
	if i+8 <= len(col) {
		w = binary.LittleEndian.Uint64(col[i:])
	} else {
		var t [8]byte
		copy(t[:], col[i:])
		w = binary.LittleEndian.Uint64(t[:])
	}
	return w >> (bit % 8) & mask
}
