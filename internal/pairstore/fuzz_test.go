package pairstore

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzSegmentRoundTrip asserts the columnar segment codec's two-sided
// contract. Forward: any batch of digest pairs builds a segment whose
// encode→compress→decode round trip reproduces every row exactly.
// Backward: any truncation or bit flip of the encoded file must fail
// with a structured *CorruptError — never a panic, never a silently
// wrong segment. Segment files survive process restarts and (in the
// replication design) network transfer, so the decoder is a trust
// boundary. Both block decoders stand behind it — the full one and the
// probe-side key-column one — so each is driven over every block, intact
// and damaged: they must agree where they succeed and fail together.
func FuzzSegmentRoundTrip(f *testing.F) {
	seed := func(pairs ...uint64) []byte {
		var b []byte
		for _, v := range pairs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5, 6))
	f.Add(seed(0, 0))                            // one self-pair at digest zero
	f.Add(seed(1<<63, 1, 1, 1<<63))              // extreme digests both orders
	f.Add(append(seed(7, 8, 9, 10), 0xff, 0x03)) // trailing mutation directive
	f.Add([]byte{})
	// Two blocks and a bit: 4 200 pairs over 70 digests, then a directive.
	var multi []uint64
	for i := uint64(0); i < 70; i++ {
		for j := uint64(0); j < 60; j++ {
			multi = append(multi, i*0x9e3779b97f4a7c15, (j+3)*0xbf58476d1ce4e5b9)
		}
	}
	f.Add(append(seed(multi...), 0x90, 0x21))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret the input as little-endian digest pairs; leftover
		// bytes steer the mutation below. Every third row is a
		// tombstone, every fifth carries a value, so all columns are
		// exercised.
		var rows []row
		seen := make(map[Key]bool)
		i := 0
		for ; i+16 <= len(raw) && len(rows) < 4*blockRows; i += 16 {
			k := Key{
				A: Digest(binary.LittleEndian.Uint64(raw[i:])),
				B: Digest(binary.LittleEndian.Uint64(raw[i+8:])),
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			r := row{key: k, ver: len(rows) % 7}
			if len(rows)%3 == 0 {
				r.tomb = true
			} else if len(rows)%5 == 0 {
				r.val = raw[i : i+10]
			}
			rows = append(rows, r)
		}
		if len(rows) == 0 {
			return
		}
		seg := buildSegment(3, rows)
		enc := seg.encodeFile()
		dec, err := decodeSegmentFile(enc)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if dec.rows != len(rows) || dec.minKey != seg.minKey || dec.maxKey != seg.maxKey {
			t.Fatalf("decoded header %d/%v/%v, want %d/%v/%v",
				dec.rows, dec.minKey, dec.maxKey, len(rows), seg.minKey, seg.maxKey)
		}
		it := newSegIter(dec)
		want := newSegIter(seg)
		for {
			got, ok1 := it.next()
			exp, ok2 := want.next()
			if ok1 != ok2 {
				t.Fatalf("iterator length mismatch")
			}
			if !ok1 {
				break
			}
			if !sameRow(got, exp) {
				t.Fatalf("row mismatch: %+v vs %+v", got, exp)
			}
		}

		for blk := range dec.blocks {
			if err := keyColsMatch(dec, blk); err != nil {
				t.Fatal(err)
			}
		}

		// Mutation directive from the leftover bytes: position and mask.
		rest := raw[i:]
		if len(rest) >= 2 && len(enc) > 0 {
			// Damage past the section checksums (a torn write the file
			// layer did not see): flip one byte of the block data, then cut
			// it short. Every block the damage reaches must fail in both
			// decoders; the others must still decode, identically.
			pos := int(rest[0]) * len(dec.data) / 256
			for _, cut := range []bool{false, true} {
				mut := *dec
				if mut.data = append([]byte(nil), dec.data...); cut {
					mut.data = mut.data[:pos]
				} else if rest[1] != 0 {
					mut.data[pos] ^= rest[1]
				}
				for blk, m := range mut.blocks {
					failed, err := corruptOrEqual(&mut, blk)
					if err != nil {
						t.Fatalf("data damaged at %d (cut=%v): %v", pos, cut, err)
					}
					hit := pos < m.off+m.length && (cut || pos >= m.off) && (cut || rest[1] != 0)
					if failed != hit {
						t.Fatalf("data damaged at %d (cut=%v): block %d [%d,%d) failed=%v", pos, cut, blk, m.off, m.off+m.length, failed)
					}
				}
			}
		}
		if len(rest) >= 2 && len(enc) > 0 {
			pos := int(rest[0]) * len(enc) / 256
			mask := rest[1]
			if mask != 0 {
				mut := append([]byte(nil), enc...)
				mut[pos] ^= mask
				if _, err := decodeSegmentFile(mut); err == nil {
					t.Fatalf("bit flip at %d (mask %02x) decoded successfully", pos, mask)
				} else {
					var ce *CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("bit flip error %T is not *CorruptError: %v", err, err)
					}
				}
			}
			cut := int(rest[0]) * len(enc) / 256
			if _, err := decodeSegmentFile(enc[:cut]); err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			} else {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("truncation error %T is not *CorruptError: %v", err, err)
				}
			}
		}
	})
}
