package pairstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"rocket/internal/testutil"
)

// deflateAt compresses p with compress/flate at the given level.
func deflateAt(t testing.TB, p []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inflateShapes are payloads that drive every block type compress/flate
// writes: stored (incompressible bytes, level 0), fixed Huffman (short
// inputs), dynamic Huffman with codes longer than the fast table
// (skewed bytes over a wide alphabet), long and overlapping matches.
func inflateShapes() [][]byte {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 70_000)
	rng.Read(random)
	skewed := make([]byte, 50_000)
	for i := range skewed {
		skewed[i] = byte(rng.ExpFloat64() * 12)
	}
	runs := make([]byte, 0, 40_000)
	for len(runs) < cap(runs)-300 {
		runs = append(runs, bytes.Repeat([]byte{byte(rng.Intn(4))}, 1+rng.Intn(300))...)
	}
	var cols []byte
	for i := 0; i < blockRows; i++ {
		cols = binary.AppendUvarint(cols, uint64(i/1500))
	}
	for i := 0; i < blockRows; i++ {
		cols = binary.LittleEndian.AppendUint16(cols, uint16(uint32(i)*2654435761>>5))
	}
	return [][]byte{{}, {7}, []byte("abcabcabcabcabcabcabcabc"), random, skewed, runs, cols,
		append(append([]byte(nil), random[:40_000]...), skewed...)}
}

// TestInflateMatchesFlate: every stream compress/flate writes, at every
// level, inflates to its input, through one reused inflater.
func TestInflateMatchesFlate(t *testing.T) {
	var z inflater
	for i, p := range inflateShapes() {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
			out := make([]byte, len(p))
			if err := z.inflate(out, deflateAt(t, p, level)); err != nil {
				t.Fatalf("shape %d level %d: %v", i, level, err)
			}
			if !bytes.Equal(out, p) {
				t.Fatalf("shape %d level %d: inflated bytes differ", i, level)
			}
		}
	}
}

// TestInflateRefusesDamage: a stream cut short, a declared length off by
// one either way, or a flipped byte never panics, and every failure is a
// *CorruptError; the cuts and the wrong lengths always fail.
func TestInflateRefusesDamage(t *testing.T) {
	var z inflater
	for i, p := range inflateShapes() {
		if len(p) == 0 {
			continue
		}
		in := deflateAt(t, p, flate.DefaultCompression)
		check := func(what string, out, in []byte, mustFail bool) {
			err := z.inflate(out, in)
			var ce *CorruptError
			if err != nil && !errors.As(err, &ce) || mustFail && err == nil {
				t.Fatalf("shape %d, %s: %v", i, what, err)
			}
		}
		check("one byte short", make([]byte, len(p)-1), in, true)
		check("one byte long", make([]byte, len(p)+1), in, true)
		for _, cut := range []int{0, 1, len(in) / 2, len(in) - 1} {
			check("cut", make([]byte, len(p)), in[:cut], true)
		}
		for k := 0; k < 64; k++ {
			mut := append([]byte(nil), in...)
			mut[k*len(mut)/64] ^= byte(1 + k)
			check("flip", make([]byte, len(p)), mut, false)
		}
	}
}

// TestInflateAllocatesNothing: a warm inflater decodes a block payload
// with no allocation, where a reused compress/flate reader allocates its
// Huffman link tables again for every dynamic block.
func TestInflateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make MemStats deltas meaningless")
	}
	p := inflateShapes()[4]
	in := deflateAt(t, p, flate.DefaultCompression)
	var z inflater
	out := make([]byte, len(p))
	if objs, _ := testutil.Allocs(func() {
		if err := z.inflate(out, in); err != nil {
			t.Error(err)
		}
	}, 3); objs != 0 {
		t.Errorf("a warm inflate allocated %d objects, want 0", objs)
	}
}

// FuzzInflate holds the inflater to compress/flate both ways. Forward:
// the input, deflated at the level its first byte picks, inflates back
// to itself. Backward: the input read as a DEFLATE stream never panics
// the inflater; where compress/flate decodes it, the inflater decodes
// the same bytes or refuses with a *CorruptError, and where
// compress/flate refuses it, so does the inflater.
func FuzzInflate(f *testing.F) {
	for _, p := range inflateShapes() {
		if len(p) < 1<<12 {
			f.Add(p)
		}
	}
	f.Add(deflateAt(f, []byte("abcabcabcabcabcabcabcabc"), flate.BestSpeed))
	f.Add(deflateAt(f, inflateShapes()[4][:3000], flate.DefaultCompression))
	f.Fuzz(func(t *testing.T, p []byte) {
		var z inflater
		levels := []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}
		level := flate.DefaultCompression
		if len(p) > 0 {
			level = levels[int(p[0])%len(levels)]
		}
		out := make([]byte, len(p))
		if err := z.inflate(out, deflateAt(t, p, level)); err != nil || !bytes.Equal(out, p) {
			t.Fatalf("level %d: round trip of %d bytes: %v", level, len(p), err)
		}

		want, errF := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(p)), 1<<20))
		out = make([]byte, len(want))
		err := z.inflate(out, p)
		var ce *CorruptError
		switch {
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("error %T is not *CorruptError: %v", err, err)
		case errF != nil && err == nil:
			t.Fatalf("compress/flate refuses the stream (%v), the inflater decodes %d bytes", errF, len(out))
		case errF == nil && err == nil && !bytes.Equal(out, want):
			t.Fatal("the inflater and compress/flate decode different bytes")
		}
	})
}
