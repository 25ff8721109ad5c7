package pairstore

// A DEFLATE (RFC 1951) decoder from one byte slice into another, for
// block payloads whose decompressed length the frame declares.
// compress/flate's reader streams through a 32 KB window and, for every
// dynamic Huffman block whose codes pass 9 bits, allocates the link
// tables of its decoder afresh: ten objects per block payload of a
// value-free store, dozens for one with values. Here the output is the
// window, the tables are arrays of the inflater, and a warm inflate
// allocates nothing. Segment files are still written by compress/flate;
// any stream it writes decodes here to the same bytes.

import (
	"encoding/binary"
	"math/bits"
)

const (
	// huffFastBits is the width of a Huffman table's direct lookup:
	// codes up to it decode in one step, longer ones bit by bit.
	huffFastBits = 10
	maxCodeLen   = 15
	numLitLen    = 286 // literal/length symbols a stream may use
	numDist      = 30  // distance symbols a stream may use
)

var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeLenOrder is the order a dynamic block lists the code lengths
	// of its code-length code in.
	codeLenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffman is a canonical Huffman code's decoder.
type huffman struct {
	// fast holds, for each value of the next huffFastBits input bits,
	// symbol<<4 | code length; 0 when the code is longer or unassigned.
	fast  [1 << huffFastBits]uint16
	count [maxCodeLen + 1]uint16 // codes of each length
	sym   [288]uint16            // symbols by code length, then by value
}

// init builds the code of the given code lengths (0: symbol unused),
// reporting false for lengths that over- or under-subscribe the code
// space, as compress/flate does. It accepts, as compress/flate does, an
// empty code and a single one-bit code; their unassigned codes fail to
// decode.
func (h *huffman) init(lengths []uint8) bool {
	h.count = [maxCodeLen + 1]uint16{}
	for _, l := range lengths {
		h.count[l]++
	}
	codes := len(lengths) - int(h.count[0])
	h.count[0] = 0
	left := 1
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - int(h.count[l]); left < 0 {
			return false
		}
	}
	if left != 0 && codes != 0 && !(codes == 1 && h.count[1] == 1) {
		return false
	}
	var offs [maxCodeLen + 1]uint16
	for l := 1; l < maxCodeLen; l++ {
		offs[l+1] = offs[l] + h.count[l]
	}
	for s, l := range lengths {
		if l != 0 {
			h.sym[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	if left != 0 || [maxCodeLen - huffFastBits]uint16(h.count[huffFastBits+1:]) != [maxCodeLen - huffFastBits]uint16{} {
		// Some entries will not be written: unassigned, or longer codes'.
		h.fast = [1 << huffFastBits]uint16{}
	}
	code, i := 0, 0
	for l := 1; l <= huffFastBits; l, code = l+1, code<<1 {
		for end := i + int(h.count[l]); i < end; i, code = i+1, code+1 {
			e := h.sym[i]<<4 | uint16(l)
			for j := int(bits.Reverse16(uint16(code)) >> (16 - l)); j < len(h.fast); j += 1 << l {
				h.fast[j] = e
			}
		}
	}
	return true
}

// lookup returns the symbol the next bits begin with, least significant
// first, and its code length: 0 for an unassigned code. bits must hold
// at least maxCodeLen bits.
func (h *huffman) lookup(bits uint64) (sym int, l uint) {
	if e := h.fast[bits&(1<<huffFastBits-1)]; e != 0 {
		return int(e >> 4), uint(e & 15)
	}
	return h.lookupLong(bits)
}

// lookupLong decodes a code longer than huffFastBits bit by bit: the
// code's bits arrive most significant first.
func (h *huffman) lookupLong(bits uint64) (sym int, l uint) {
	code, first, index := 0, 0, 0
	for l := uint(1); l <= maxCodeLen; l++ {
		code |= int(bits>>(l-1)) & 1
		count := int(h.count[l])
		if code-first < count {
			return int(h.sym[index+code-first]), l
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, 0
}

// bitReader reads a DEFLATE stream's bits, least significant first. Past
// the input's end it reads zero bytes, counting them in pad.
type bitReader struct {
	in   []byte
	pos  int
	bits uint64
	n    uint // valid bits in bits
	pad  int
}

// refill tops the buffer up to at least 56 bits.
func (br *bitReader) refill() {
	if br.pos+8 <= len(br.in) {
		br.bits |= binary.LittleEndian.Uint64(br.in[br.pos:]) << br.n
		br.pos += int(63-br.n) >> 3
		br.n |= 56
		return
	}
	for ; br.n <= 56; br.n += 8 {
		if br.pos < len(br.in) {
			br.bits |= uint64(br.in[br.pos]) << br.n
			br.pos++
		} else {
			br.pad++
		}
	}
}

func (br *bitReader) drop(n uint) { br.bits >>= n; br.n -= n }

// take returns the next n (≤ 32) bits; the buffer must hold them.
func (br *bitReader) take(n uint) uint32 {
	v := uint32(br.bits & (1<<n - 1))
	br.drop(n)
	return v
}

// overrun reports whether the stream has read past the input's end.
func (br *bitReader) overrun() bool { return br.n < 8*uint(br.pad) }

// inflater is the reusable state of block decompression: the Huffman
// decoders, the code lengths a dynamic block declares, and the output
// buffer. The block cache owns one, so an inflate allocates nothing once
// its buffer has grown to the largest block.
type inflater struct {
	lit, dist huffman
	lens      [numLitLen + numDist]uint8
	buf       []byte
}

// inflate decodes the DEFLATE stream in into out, which it must fill
// exactly. Input past the final block is ignored.
func (z *inflater) inflate(out, in []byte) error {
	br := bitReader{in: in}
	o := 0
	for final := false; !final; {
		br.refill()
		final = br.take(1) == 1
		switch br.take(2) {
		case 0:
			// Stored: from the next byte boundary, LEN, its complement,
			// then LEN bytes.
			br.drop(br.n % 8)
			at := br.pos + br.pad - int(br.n/8)
			if at+4 > len(in) {
				return corrupt("block", "flate: stored block header truncated")
			}
			n := int(binary.LittleEndian.Uint16(in[at:]))
			if ^binary.LittleEndian.Uint16(in[at+2:]) != uint16(n) {
				return corrupt("block", "flate: stored block length %d does not match its complement", n)
			}
			if at += 4; n > len(in)-at || n > len(out)-o {
				return corrupt("block", "flate: stored block of %d bytes overruns", n)
			}
			o += copy(out[o:], in[at:at+n])
			br = bitReader{in: in, pos: at + n}
			continue
		case 1:
			z.fixed()
		case 2:
			if err := z.dynamic(&br); err != nil {
				return err
			}
		default:
			return corrupt("block", "flate: reserved block type")
		}
		var err error
		if o, err = z.codes(&br, out, o); err != nil {
			return err
		}
	}
	if br.overrun() {
		return corrupt("block", "flate: stream truncated")
	}
	if o != len(out) {
		return corrupt("block", "decompressed %d bytes, declared %d", o, len(out))
	}
	return nil
}

// fixed loads the fixed Huffman codes.
func (z *inflater) fixed() {
	l := z.lens[:288]
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	z.lit.init(l)
	// All 32 five-bit codes: the two past numDist decode, and are refused.
	for i := range l[:32] {
		l[i] = 5
	}
	z.dist.init(l[:32])
}

// dynamic reads a dynamic block's header and loads its codes. The
// code-length code is built in z.dist, which the distance code then
// replaces.
func (z *inflater) dynamic(br *bitReader) error {
	br.refill()
	nlit, ndist, nclen := int(br.take(5))+257, int(br.take(5))+1, int(br.take(4))+4
	if nlit > numLitLen || ndist > numDist {
		return corrupt("block", "flate: %d literal/length and %d distance codes", nlit, ndist)
	}
	var cl [19]uint8
	for i := 0; i < nclen; i++ {
		if i%16 == 0 {
			br.refill()
		}
		cl[codeLenOrder[i]] = uint8(br.take(3))
	}
	if !z.dist.init(cl[:]) {
		return corrupt("block", "flate: invalid code-length code lengths")
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		br.refill()
		s, l := z.dist.lookup(br.bits)
		br.drop(l)
		var v uint8
		rep := 1
		switch {
		case l == 0:
			return corrupt("block", "flate: invalid code-length code")
		case s < 16:
			v = uint8(s)
		case s == 16:
			if i == 0 {
				return corrupt("block", "flate: repeat with no previous length")
			}
			v, rep = lens[i-1], 3+int(br.take(2))
		case s == 17:
			rep = 3 + int(br.take(3))
		default:
			rep = 11 + int(br.take(7))
		}
		if rep > len(lens)-i {
			return corrupt("block", "flate: code lengths overrun")
		}
		for ; rep > 0; rep, i = rep-1, i+1 {
			lens[i] = v
		}
	}
	if lens[256] == 0 {
		return corrupt("block", "flate: no end-of-block code")
	}
	if !z.lit.init(lens[:nlit]) || !z.dist.init(lens[nlit:]) {
		return corrupt("block", "flate: invalid code lengths")
	}
	return nil
}

// codes decodes one block's symbols into out from o, returning the new
// end of the output. The bit buffer is kept in locals and handed back to
// br when the block ends.
func (z *inflater) codes(br *bitReader, out []byte, o int) (int, error) {
	in, pos, bits, n := br.in, br.pos, br.bits, br.n
	for {
		// 48 bits cover the longest symbol: a 15-bit length code and 5
		// extra bits, a 15-bit distance code and 13 extra bits.
		if n < 48 {
			if pos+8 <= len(in) {
				bits |= binary.LittleEndian.Uint64(in[pos:]) << n
				pos += int(63-n) >> 3
				n |= 56
			} else {
				br.pos, br.bits, br.n = pos, bits, n
				br.refill()
				pos, bits, n = br.pos, br.bits, br.n
				if br.pad > 8 {
					return 0, corrupt("block", "flate: stream truncated")
				}
			}
		}
		// lookup's fast path, written out: the call would not inline.
		c := z.lit.fast[bits&(1<<huffFastBits-1)]
		s, l := int(c>>4), uint(c&15)
		if c == 0 {
			s, l = z.lit.lookupLong(bits)
		}
		bits, n = bits>>l, n-l
		switch {
		case l == 0:
			return 0, corrupt("block", "flate: invalid literal/length code")
		case s < 256:
			if o == len(out) {
				return 0, corrupt("block", "decompressed past declared length %d", len(out))
			}
			out[o] = byte(s)
			o++
			continue
		case s == 256:
			br.pos, br.bits, br.n = pos, bits, n
			return o, nil
		case s > 285:
			return 0, corrupt("block", "flate: invalid length symbol %d", s)
		}
		s -= 257
		e := uint(lenExtra[s])
		length := int(lenBase[s]) + int(bits&(1<<e-1))
		bits, n = bits>>e, n-e
		c = z.dist.fast[bits&(1<<huffFastBits-1)]
		d, l := int(c>>4), uint(c&15)
		if c == 0 {
			d, l = z.dist.lookupLong(bits)
		}
		if l == 0 || d >= numDist {
			return 0, corrupt("block", "flate: invalid distance code")
		}
		bits, n = bits>>l, n-l
		e = uint(distExtra[d])
		dist := int(distBase[d]) + int(bits&(1<<e-1))
		bits, n = bits>>e, n-e
		if dist > o {
			return 0, corrupt("block", "flate: distance %d before the start of the output", dist)
		}
		if length > len(out)-o {
			return 0, corrupt("block", "decompressed past declared length %d", len(out))
		}
		// An overlapping copy repeats the last dist bytes: each copy
		// doubles the periodic run it copies from.
		from, end := o-dist, o+length
		for o < end {
			o += copy(out[o:end], out[from:o])
		}
	}
}
