// Package pairs implements the divide-and-conquer decomposition of the
// all-pairs workload (paper §4.2, Fig. 5). The workload {(i, j) : 0 <= i <
// j < n} is viewed as the strict upper triangle of an n x n matrix; a
// Region is a rectangular block of that matrix, recursively split into
// four quadrants until leaf-sized. Index ranges are half-open.
package pairs

import "fmt"

// Region is the block of pairs (i, j) with RowLo <= i < RowHi,
// ColLo <= j < ColHi, intersected with the constraint i < j.
type Region struct {
	RowLo, RowHi int
	ColLo, ColHi int
}

// Root returns the region covering all pairs of an n-item data set.
func Root(n int) Region {
	if n < 0 {
		panic(fmt.Sprintf("pairs: negative n %d", n))
	}
	return Region{0, n, 0, n}
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("rows[%d,%d)xcols[%d,%d)", r.RowLo, r.RowHi, r.ColLo, r.ColHi)
}

// Count returns the number of pairs in the region, honoring i < j.
func (r Region) Count() int64 {
	if r.RowHi <= r.RowLo || r.ColHi <= r.ColLo {
		return 0
	}
	var total int64
	// Rows fully above the diagonal within this block contribute the full
	// column width; the diagonal band needs per-row clamping. Split the row
	// range at the points where max(ColLo, i+1) changes regime.
	rows, cols := r.RowHi-r.RowLo, r.ColHi-r.ColLo
	if r.ColLo >= r.RowHi {
		// Entire block strictly above the diagonal.
		return int64(rows) * int64(cols)
	}
	for i := r.RowLo; i < r.RowHi; i++ {
		lo := r.ColLo
		if i+1 > lo {
			lo = i + 1
		}
		if r.ColHi > lo {
			total += int64(r.ColHi - lo)
		}
	}
	return total
}

// Empty reports whether the region contains no pairs.
func (r Region) Empty() bool { return r.Count() == 0 }

// dims returns the row and column extents.
func (r Region) dims() (rows, cols int) {
	return r.RowHi - r.RowLo, r.ColHi - r.ColLo
}

// Split divides the region into up to four quadrants at the midpoints of
// its row and column ranges, discarding quadrants that contain no pairs.
// Quadrants are returned in (top-left, top-right, bottom-left,
// bottom-right) order. Splitting a region with a single row and column is
// invalid; callers stop splitting at leaves.
func (r Region) Split() []Region {
	rows, cols := r.dims()
	if rows <= 1 && cols <= 1 {
		panic(fmt.Sprintf("pairs: splitting unit region %v", r))
	}
	rowMid := r.RowLo + rows/2
	colMid := r.ColLo + cols/2
	if rows <= 1 {
		rowMid = r.RowHi
	}
	if cols <= 1 {
		colMid = r.ColHi
	}
	candidates := []Region{
		{r.RowLo, rowMid, r.ColLo, colMid},
		{r.RowLo, rowMid, colMid, r.ColHi},
		{rowMid, r.RowHi, r.ColLo, colMid},
		{rowMid, r.RowHi, colMid, r.ColHi},
	}
	out := candidates[:0]
	for _, c := range candidates {
		if c.RowHi > c.RowLo && c.ColHi > c.ColLo && !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Each calls fn for every pair (i, j) in the region in row-major order.
func (r Region) Each(fn func(i, j int)) {
	for i := r.RowLo; i < r.RowHi; i++ {
		lo := r.ColLo
		if i+1 > lo {
			lo = i + 1
		}
		for j := lo; j < r.ColHi; j++ {
			fn(i, j)
		}
	}
}

// Items calls fn once for every distinct item index referenced by the
// region (the union of its row and column ranges, deduplicated).
func (r Region) Items(fn func(item int)) {
	for i := r.RowLo; i < r.RowHi; i++ {
		fn(i)
	}
	for j := r.ColLo; j < r.ColHi; j++ {
		if j < r.RowLo || j >= r.RowHi {
			fn(j)
		}
	}
}

// TotalPairs returns n choose 2.
func TotalPairs(n int) int64 {
	return int64(n) * int64(n-1) / 2
}

// OverlapCount returns how many of the given items (ascending, distinct)
// are referenced by the region — the basis of cache-aware stealing: a
// thief prefers regions whose items it already holds.
func (r Region) OverlapCount(sorted []int) int {
	rows := countInRange(sorted, r.RowLo, r.RowHi)
	cols := countInRange(sorted, r.ColLo, r.ColHi)
	// Subtract the double-counted intersection of the two index ranges.
	lo, hi := r.RowLo, r.RowHi
	if r.ColLo > lo {
		lo = r.ColLo
	}
	if r.ColHi < hi {
		hi = r.ColHi
	}
	both := 0
	if hi > lo {
		both = countInRange(sorted, lo, hi)
	}
	return rows + cols - both
}

// countInRange counts values v in sorted with lo <= v < hi.
func countInRange(sorted []int, lo, hi int) int {
	return lowerBound(sorted, hi) - lowerBound(sorted, lo)
}

// lowerBound returns the first index whose value is >= x.
func lowerBound(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
