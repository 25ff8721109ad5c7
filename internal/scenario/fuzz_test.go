package scenario

import (
	"reflect"
	"strconv"
	"testing"
)

// scaling are the keys whose values the fault compile is linear in (or,
// for a cascade's count and size, bilinear): the decoder is linear in its
// input, the generators in what it names.
var scaling = map[string]bool{"nodes": true, "link_faults": true, "count": true, "size": true}

// maxScale caps the sum of a fuzzed document's scaling values so one
// input's compile stays within a few tens of megabytes; every committed
// scenario fits (stress-1k sums to 1 049).
const maxScale = 1100

// scale sums the scaling integers under n (an out-of-range one counts as
// the whole budget).
func scale(n *yNode, key string) int {
	sum := 0
	switch n.kind {
	case yScalar:
		if v, err := strconv.Atoi(n.scalar); err == nil && scaling[key] {
			if v < -maxScale || v > maxScale {
				return maxScale + 1
			}
			if v < 0 {
				v = -v
			}
			sum = v
		}
	case yMap:
		for _, k := range n.keys {
			sum += scale(n.vals[k], k)
		}
	case yList:
		for _, it := range n.items {
			sum += scale(it, key)
		}
	}
	return sum
}

// FuzzScenarioParse drives the one scenario decode path with arbitrary
// bytes: Parse must never panic, and a scenario it accepts must compile
// to a fault schedule that passes Validate against the platform shape,
// identically every time it is compiled. The seed corpus under
// testdata/fuzz/FuzzScenarioParse is the committed scenarios/ directory.
func FuzzScenarioParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if root, err := parseYAML(data); err == nil && scale(root, "") > maxScale {
			t.Skip()
		}
		sc, err := Parse(data)
		if err != nil {
			return
		}
		first, err := sc.CompileFaults()
		if err != nil {
			t.Fatalf("accepted scenario does not compile: %v", err)
		}
		if err := first.Validate(sc.gpuShape()); err != nil {
			t.Fatalf("compiled schedule fails Validate: %v", err)
		}
		again, err := sc.CompileFaults()
		if err != nil || !reflect.DeepEqual(first, again) {
			t.Fatalf("compiling twice differs (err %v)", err)
		}
	})
}
