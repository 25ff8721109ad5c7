package pairstore

// Low-level codecs shared by the columnar segment format: unsigned and
// zigzag varints, fixed-width bit-packing, and the checksummed section
// container segment files are assembled from. Everything here decodes
// with explicit bounds checks and returns *CorruptError on malformed
// input — segment files cross process boundaries (warm restarts,
// replication), so a flipped bit or a truncated write must surface as a
// structured error, never as a panic.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// CorruptError reports a structurally invalid segment file: a failed
// checksum, a truncated section, or an impossible field value. Path is
// empty when the segment was decoded from memory.
type CorruptError struct {
	Path    string
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("pairstore: corrupt segment: %s: %s", e.Section, e.Reason)
	}
	return fmt.Sprintf("pairstore: corrupt segment %s: %s: %s", e.Path, e.Section, e.Reason)
}

func corrupt(section, format string, args ...interface{}) error {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// putUvarint appends v to b as an unsigned varint.
func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// putVarint appends v to b as a zigzag varint.
func putVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// byteReader wraps a byte slice with bounds-checked reads that degrade
// to errors instead of panics.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) uvarint(section string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, corrupt(section, "truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint(section string) (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, corrupt(section, "truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) bytes(n int, section string) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, corrupt(section, "truncated: need %d bytes at offset %d of %d", n, r.off, len(r.b))
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

// bitWidth returns the number of bits needed to represent v.
func bitWidth(v uint64) uint {
	var w uint
	for v > 0 {
		w++
		v >>= 1
	}
	return w
}

// packBits appends n values at the given fixed bit width (0..64) to b,
// little-endian within a running 64-bit buffer. Width 0 appends nothing.
func packBits(b []byte, vals []uint64, width uint) []byte {
	if width == 0 {
		return b
	}
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc |= (v & widthMask(width)) << nbits
		nbits += width
		for nbits >= 8 {
			b = append(b, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		b = append(b, byte(acc))
	}
	return b
}

func widthMask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

// unpackBits decodes n values of the given width from b into out.
func unpackBits(b []byte, n int, width uint, out []uint64, section string) error {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return nil
	}
	need := (n*int(width) + 7) / 8
	if need > len(b) {
		return corrupt(section, "bit-packed column truncated: need %d bytes, have %d", need, len(b))
	}
	var acc uint64
	var nbits uint
	pos := 0
	for i := 0; i < n; i++ {
		for nbits < width {
			acc |= uint64(b[pos]) << nbits
			pos++
			nbits += 8
		}
		out[i] = acc & widthMask(width)
		acc >>= width
		nbits -= width
	}
	return nil
}

// Section container. A segment file is a magic string followed by
// tagged sections, each independently checksummed:
//
//	[4-byte tag][u32 byte length][u32 crc32(payload)][payload]
//
// Readers locate sections sequentially; any truncation or checksum
// mismatch is a *CorruptError naming the section.

var segMagic = []byte("RKPS0002")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendSection(dst []byte, tag string, payload []byte) []byte {
	dst = append(dst, tag[:4]...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readSection reads the next section, verifying its tag and checksum.
func readSection(r *byteReader, wantTag string) ([]byte, error) {
	tag, err := r.bytes(4, wantTag)
	if err != nil {
		return nil, err
	}
	if string(tag) != wantTag {
		return nil, corrupt(wantTag, "unexpected section tag %q", tag)
	}
	hdr, err := r.bytes(8, wantTag)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	payload, err := r.bytes(int(n), wantTag)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, corrupt(wantTag, "checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	return payload, nil
}

// Block container codecs.
const (
	codecRaw   = 0
	codecFlate = 1
)

// deflater is the reusable half of block compression: the flate writer
// with its hash tables and the buffer it writes to. Each segment builder
// owns one; Reset is documented as equivalent to NewWriter, so reuse
// cannot move a byte.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

// compressBlock frames one block payload: a codec byte, the raw length,
// the stored length, a crc over the stored bytes, then the stored bytes
// (flate-compressed when that actually shrinks the payload).
func compressBlock(dst, payload []byte, z *deflater) []byte {
	z.buf.Reset()
	if z.zw == nil {
		z.zw, _ = flate.NewWriter(&z.buf, flate.DefaultCompression)
	} else {
		z.zw.Reset(&z.buf)
	}
	stored := payload
	codec := byte(codecRaw)
	if _, err := z.zw.Write(payload); err == nil && z.zw.Close() == nil && z.buf.Len() < len(payload) {
		stored = z.buf.Bytes()
		codec = codecFlate
	}
	dst = append(dst, codec)
	dst = putUvarint(dst, uint64(len(payload)))
	dst = putUvarint(dst, uint64(len(stored)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(stored, crcTable))
	dst = append(dst, sum[:]...)
	return append(dst, stored...)
}

// inflater is the reusable half of block decompression: the flate
// reader with its 32KB window and the output buffer. The probe cache
// owns one, so a cache miss allocates neither.
type inflater struct {
	zr  io.ReadCloser
	src bytes.Reader
	buf []byte
}

// decompressBlock reverses compressBlock, verifying the checksum and
// the decompressed length. With a non-nil z the result lives in z's
// buffer and is valid only until z's next use.
func decompressBlock(b []byte, z *inflater) ([]byte, error) {
	r := &byteReader{b: b}
	codecB, err := r.bytes(1, "block")
	if err != nil {
		return nil, err
	}
	rawLen, err := r.uvarint("block")
	if err != nil {
		return nil, err
	}
	if rawLen > 1<<30 {
		return nil, corrupt("block", "implausible raw length %d", rawLen)
	}
	storedLen, err := r.uvarint("block")
	if err != nil {
		return nil, err
	}
	sumB, err := r.bytes(4, "block")
	if err != nil {
		return nil, err
	}
	stored, err := r.bytes(int(storedLen), "block")
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(stored, crcTable); got != binary.LittleEndian.Uint32(sumB) {
		return nil, corrupt("block", "checksum mismatch: stored %08x, computed %08x",
			binary.LittleEndian.Uint32(sumB), got)
	}
	switch codecB[0] {
	case codecRaw:
		if uint64(len(stored)) != rawLen {
			return nil, corrupt("block", "raw block length %d != declared %d", len(stored), rawLen)
		}
		return stored, nil
	case codecFlate:
		if z == nil {
			z = &inflater{}
		}
		z.src.Reset(stored)
		if z.zr == nil {
			z.zr = flate.NewReader(&z.src)
		} else if err := z.zr.(flate.Resetter).Reset(&z.src, nil); err != nil {
			return nil, corrupt("block", "flate: %v", err)
		}
		// One byte of slack, so a stream running past rawLen is caught
		// without growing the buffer.
		if uint64(cap(z.buf)) <= rawLen {
			z.buf = make([]byte, rawLen+1)
		}
		buf, n := z.buf[:rawLen+1], 0
		for {
			m, err := z.zr.Read(buf[n:])
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, corrupt("block", "flate: %v", err)
			}
			if n == len(buf) {
				return nil, corrupt("block", "decompressed past declared length %d", rawLen)
			}
		}
		if uint64(n) != rawLen {
			return nil, corrupt("block", "decompressed %d bytes, declared %d", n, rawLen)
		}
		return z.buf[:n], nil
	default:
		return nil, corrupt("block", "unknown codec %d", codecB[0])
	}
}
