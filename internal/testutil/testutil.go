// Package testutil holds what the tests of several packages share.
package testutil

import "runtime"

// Allocs reports the heap objects and bytes one call of f allocates: the
// fewest of k calls, each counted by runtime.MemStats deltas after a
// runtime.GC. Now and then the Go runtime or another goroutine allocates
// while f runs (a timer, a goroutine, a burst under load); that only ever
// adds, so the cheapest of a few calls is what f itself allocates.
func Allocs(f func(), k int) (objects, bytes uint64) {
	var before, after runtime.MemStats
	for i := 0; i < k; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		o, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 || o < objects {
			objects = o
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return objects, bytes
}
