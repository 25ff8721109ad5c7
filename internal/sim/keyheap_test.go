package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyProgram runs a push/pop program on a keyHeap and on a reference that
// sorts its pending keys with slices.SortFunc on (at, src, seq) before
// every pop, and reports the first pop on which they differ. Each byte of
// prog is one operation: a pop when its low bit is set (and something is
// pending), otherwise a push whose at and src come from small tables, so
// that ties on at and on src are the common case. The tables hold at
// values at both ends of int64 and around 0, where a compare that
// subtracted instead of borrowing would overflow. seqs are unique, as
// both queues make them, but not monotone.
func keyProgram(prog []byte) (pops int, diff string) {
	ats := [...]Time{0, 1, 2, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, -1, 1 << 40}
	srcs := [...]uint32{0, 1, 7, math.MaxUint32}
	var h keyHeap
	var ref []key
	var seq uint64
	popBoth := func() string {
		slices.SortFunc(ref, func(x, y key) int {
			return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.src, y.src), cmp.Compare(x.seq, y.seq))
		})
		got, want := h.pop(), ref[0]
		ref = ref[1:]
		pops++
		if got != want {
			return fmt.Sprintf("pop %d: got %+v, want %+v", pops, got, want)
		}
		return ""
	}
	for i, b := range prog {
		if b&1 == 1 && len(ref) > 0 {
			if diff := popBoth(); diff != "" {
				return pops, diff
			}
			continue
		}
		seq += 0x9e3779b97f4a7c15 // an odd step: every seq of a program differs
		k := key{at: ats[b>>1&7], seq: seq, src: srcs[b>>4&3], idx: int32(i)}
		h.push(k)
		ref = append(ref, k)
	}
	for len(ref) > 0 {
		if diff := popBoth(); diff != "" {
			return pops, diff
		}
	}
	if len(h) != 0 {
		return pops, fmt.Sprintf("%d keys left in the heap", len(h))
	}
	return pops, ""
}

// The heap pops exactly the sorted order, whatever the interleaving of
// pushes and pops, the heap's depth or the ties among its keys.
func TestKeyHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	total := 0
	for n := 0; n < 300; n++ {
		prog := make([]byte, 1+rng.Intn(1000))
		rng.Read(prog)
		// Bias some programs towards pushes, so the heap grows deep.
		if n%2 == 0 {
			for i := range prog {
				if rng.Intn(4) != 0 {
					prog[i] &^= 1
				}
			}
		}
		pops, diff := keyProgram(prog)
		if diff != "" {
			t.Fatalf("program %d (%d bytes): %s", n, len(prog), diff)
		}
		total += pops
	}
	if total < 80000 {
		t.Fatalf("the programs popped only %d keys", total)
	}
	t.Logf("%d keys popped", total)
}

func FuzzKeyHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 14, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if _, diff := keyProgram(prog); diff != "" {
			t.Fatal(diff)
		}
	})
}
