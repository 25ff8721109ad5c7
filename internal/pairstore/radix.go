package pairstore

// The seal's sort of its records: an in-place MSD radix sort (American
// flag sort; McIlroy, Bostic and McIlroy, "Engineering Radix Sort",
// 1993).
//
// A key is read as one 128-bit big-endian number, A before B, in 8-bit
// digits, so the order is keyLess order. Pair keys share long prefixes:
// after A's first two digits each bucket of a seal holds one A digest.
// So each bucket first
// finds the first digit its keys do not all share, in one pass (the OR
// of every key XOR the first), and skips the shared ones without
// counting or moving anything. Buckets of at most radixCutoff records
// are finished by insertion sort. Nothing is allocated: records are
// permuted in place and each level's counts live on the stack.

import "math/bits"

// radixCutoff is the largest bucket insertion sort finishes: below it a
// 256-way count costs more than the few comparisons it saves.
const radixCutoff = 24

// sortKeys sorts xs by key, in place. Records with equal keys end in an
// unspecified order.
func sortKeys(xs []sealRec) {
	if len(xs) <= radixCutoff {
		insertionSort(xs)
		return
	}
	// The first digit not every key shares: its byte in A, else in B.
	k0 := xs[0].key
	var da, db uint64
	for i := 1; i < len(xs); i++ {
		k := xs[i].key
		da |= uint64(k.A ^ k0.A)
		db |= uint64(k.B ^ k0.B)
	}
	inA := da != 0
	if !inA {
		if db == 0 {
			return // all keys are equal
		}
		da = db
	}
	shift := 56 - uint(bits.LeadingZeros64(da))&^7

	// Count, then permute each record into its digit's bucket by
	// following cycles: next[d] is the first slot of bucket d not yet
	// holding a record of it, end[d] the bucket's end.
	var next, end [256]int
	for i := range xs {
		end[digit(xs[i].key, inA, shift)]++
	}
	off := 0
	for d := range end {
		next[d] = off
		off += end[d]
		end[d] = off
	}
	for d := range end {
		for i := next[d]; i < end[d]; i = next[d] {
			x := xs[i]
			for xd := digit(x.key, inA, shift); xd != d; xd = digit(x.key, inA, shift) {
				j := next[xd]
				next[xd]++
				x, xs[j] = xs[j], x
			}
			xs[i] = x
			next[d]++
		}
	}
	start := 0
	for d := range end {
		if end[d]-start > 1 {
			sortKeys(xs[start:end[d]])
		}
		start = end[d]
	}
}

// digit is the byte at shift of the key's A word or, past A, its B word.
func digit(k Key, inA bool, shift uint) int {
	w := uint64(k.B)
	if inA {
		w = uint64(k.A)
	}
	return int(uint8(w >> shift))
}

// insertionSort finishes a bucket of at most radixCutoff records. Each key
// is read once, into an array on the stack that moves with the records.
func insertionSort(xs []sealRec) {
	var keys [radixCutoff]Key
	for i := range xs {
		x, k := xs[i], xs[i].key
		j := i
		for ; j > 0 && keyLess(k, keys[j-1]); j-- {
			xs[j], keys[j] = xs[j-1], keys[j-1]
		}
		xs[j], keys[j] = x, k
	}
}
