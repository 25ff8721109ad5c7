package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// A hand-rolled pprof encoder, the mirror of the reader under test.

func encVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func encField(b []byte, tag int, v uint64) []byte {
	return encVarint(encVarint(b, uint64(tag)<<3), v)
}

func encBytes(b []byte, tag int, payload []byte) []byte {
	b = encVarint(encVarint(b, uint64(tag)<<3|2), uint64(len(payload)))
	return append(b, payload...)
}

func encPacked(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = encVarint(b, v)
	}
	return b
}

// genProfile builds a gzipped profile whose samples are the given stacks
// (leaf first) weighted by value. inlined marks function names that share
// one location with the name after them, as an inlined callee does.
func genProfile(stacks [][]string, values []uint64, inlined map[string]bool) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof []byte
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		prof = encBytes(prof, 5, encField(encField(nil, 1, id), 2, intern(name)))
		return id
	}
	nextLoc := uint64(1)
	for s, stack := range stacks {
		var locs []uint64
		for i := 0; i < len(stack); i++ {
			loc := encField(nil, 1, nextLoc)
			loc = encBytes(loc, 4, encField(nil, 1, fn(stack[i])))
			for inlined[stack[i]] && i+1 < len(stack) {
				i++
				loc = encBytes(loc, 4, encField(nil, 1, fn(stack[i])))
			}
			prof = encBytes(prof, 4, loc)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		// Sample values as Go's CPU profile has them: count, then nanoseconds.
		sample := encBytes(nil, 1, encPacked(locs...))
		sample = encBytes(sample, 2, encPacked(1, values[s]))
		prof = encBytes(prof, 2, sample)
	}
	for _, s := range strs {
		prof = encBytes(prof, 6, []byte(s))
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof)
	zw.Close()
	return zipped.Bytes()
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"rocket/internal/sim.(*Env).Step":                   "rocket/internal/sim",
		"rocket/internal/core.(*runtime).submit.func1":      "rocket/internal/core",
		"rocket/internal/apps/forensics.(*App).CompareTime": "rocket/internal/apps/forensics",
		"runtime.mallocgc":                                  "runtime",
		"net/http.(*conn).serve":                            "net/http",
		"main.main":                                         "main",
		"rocket.(*Runner).Run":                              "rocket",
		"internal/runtime/syscall.Syscall6":                 "internal/runtime/syscall",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileBucketsByInnermostLayer(t *testing.T) {
	stacks := [][]string{
		// The allocator under core: core's, and in the malloc view.
		{"runtime.mallocgc", "runtime.newobject", "rocket/internal/core.(*runtime).submit", "rocket.(*Runner).Run", "main.main"},
		// The standard library under pairstore: pairstore's.
		{"compress/flate.(*decompressor).huffSym", "rocket/internal/pairstore.(*segment).decodeBlock", "main.(*storeInst).plan"},
		// A background collector: no layer.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// Connection handling outside any handler.
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "net/http.(*conn).serve"},
		// The client side of HTTP belongs to the load generator.
		{"encoding/json.Marshal", "main.(*client).submit", "main.runOpenLoop"},
		// An inlined leaf shares its caller's location.
		{"rocket/internal/sim.(*queue).push", "rocket/internal/sim.(*Env).schedule", "rocket/internal/core.(*runtime).tick", "main.main"},
		// A cost model called back from core is charged to apps.
		{"rocket/internal/stats.(*RNG).Uint64", "rocket/internal/apps/phylo.(*App).CompareTime", "rocket/internal/core.(*runtime).tick"},
		// A collector assist inside an allocation under sim.
		{"runtime.gcAssistAlloc", "runtime.mallocgc", "rocket/internal/sim.(*Env).At"},
	}
	values := []uint64{30, 20, 10, 5, 5, 15, 10, 5}
	samples, err := parseProfile(genProfile(stacks, values, map[string]bool{"rocket/internal/sim.(*queue).push": true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.frames) != len(stacks[i]) || s.frames[0] != stacks[i][0] || s.frames[len(s.frames)-1] != stacks[i][len(stacks[i])-1] {
			t.Errorf("sample %d frames = %v, want %v", i, s.frames, stacks[i])
		}
		if s.value != int64(values[i]) {
			t.Errorf("sample %d value = %d, want %d", i, s.value, values[i])
		}
	}
	b := bucketProfile(samples)
	want := map[string]float64{
		"core": 0.30, "pairstore": 0.20, "other": 0.10, "nethttp": 0.05,
		"loadgen": 0.05, "sim": 0.20, "apps": 0.10,
	}
	var sum float64
	for layer, frac := range b.ByLayer {
		sum += frac
		if math.Abs(frac-want[layer]) > 1e-9 {
			t.Errorf("layer %s has %.3f of the samples, want %.3f", layer, frac, want[layer])
		}
	}
	if len(b.ByLayer) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("buckets %v do not partition the samples (sum %.3f)", b.ByLayer, sum)
	}
	if math.Abs(b.Malloc-0.35) > 1e-9 {
		t.Errorf("allocator view = %.3f, want 0.35", b.Malloc)
	}
	if math.Abs(b.GC-0.15) > 1e-9 {
		t.Errorf("collector view = %.3f, want 0.15", b.GC)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}

// The reader must also take what the Go runtime really writes.
func TestProfileReadsARealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(250 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler took no sample in 250 ms")
	}
	// Under the race detector most samples land in its own runtime, so
	// only ask that the spin was seen at all.
	if b := bucketProfile(samples); b.ByLayer["loadgen"] == 0 {
		t.Errorf("a spin in this package got none of the %d samples: %v", len(samples), b.ByLayer)
	}
}
