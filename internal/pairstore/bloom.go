package pairstore

// A blocked-free, classic bloom filter over pair keys. Each sealed
// segment carries one so point probes (Put dup checks, planner
// verification of planned-resident pairs) skip segments that cannot
// contain the key without decoding any block. Sized at ~10 bits per
// key with 7 probes, the false-positive rate is ~1% — a false positive
// costs one block decode, never a wrong answer.

const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

type bloom struct {
	bits []uint64
}

// maxBloomWords keeps a filter's bit count, 64·words, below 2³²: add
// and test reduce 32-bit hashes modulo it, and at 2²⁶ words it would wrap
// to 0. A segment of more than ≈ 429 M keys gets this many words and a
// higher false-positive rate, never a wrong answer.
const maxBloomWords = (1<<32 - 1) / 64

// bloomWords is the word count of a filter for n keys.
func bloomWords(n int) int {
	return min((n*bloomBitsPerKey+63)/64, maxBloomWords)
}

// newBloom sizes a filter for n keys. n == 0 yields an empty filter
// that reports every key absent.
func newBloom(n int) bloom {
	if n <= 0 {
		return bloom{}
	}
	return bloom{bits: make([]uint64, bloomWords(n))}
}

// bloomHash derives the two independent 32-bit hashes double hashing
// composes. The pair key's digests are already avalanched (splitmix64
// finalizer in DigestItem), so cheap mixing suffices.
func bloomHash(k Key) (uint32, uint32) {
	x := uint64(k.A) ^ (uint64(k.B)<<32 | uint64(k.B)>>32)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x), uint32(x >> 32)
}

func (f *bloom) add(k Key) {
	if len(f.bits) == 0 {
		return
	}
	h1, h2 := bloomHash(k)
	m := uint32(len(f.bits) * 64)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// test reports whether k may be present (false = definitely absent).
func (f *bloom) test(k Key) bool {
	if len(f.bits) == 0 {
		return false
	}
	h1, h2 := bloomHash(k)
	m := uint32(len(f.bits) * 64)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// sizeBytes is the filter's resident footprint.
func (f *bloom) sizeBytes() int64 { return int64(len(f.bits) * 8) }
