package pairs

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRootCount(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 100} {
		want := int64(n) * int64(n-1) / 2
		if got := Root(n).Count(); got != want {
			t.Errorf("Root(%d).Count() = %d, want %d", n, got, want)
		}
		if TotalPairs(n) != want {
			t.Errorf("TotalPairs(%d) = %d, want %d", n, TotalPairs(n), want)
		}
	}
}

func TestNegativeRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Root(-1) did not panic")
		}
	}()
	Root(-1)
}

func TestCountFullyAboveDiagonal(t *testing.T) {
	r := Region{0, 4, 8, 16}
	if got := r.Count(); got != 32 {
		t.Fatalf("Count = %d, want 32 (full rectangle)", got)
	}
}

func TestCountBelowDiagonalEmpty(t *testing.T) {
	r := Region{8, 16, 0, 4}
	if !r.Empty() {
		t.Fatalf("below-diagonal block should be empty, Count = %d", r.Count())
	}
}

func TestEachMatchesCount(t *testing.T) {
	regions := []Region{
		{0, 8, 0, 8},
		{3, 7, 2, 9},
		{0, 1, 0, 1},
		{5, 5, 0, 10},
		{2, 6, 6, 12},
	}
	for _, r := range regions {
		var seen int64
		r.Each(func(i, j int) {
			if i >= j {
				t.Fatalf("region %v yielded invalid pair (%d, %d)", r, i, j)
			}
			if i < r.RowLo || i >= r.RowHi || j < r.ColLo || j >= r.ColHi {
				t.Fatalf("region %v yielded out-of-range pair (%d, %d)", r, i, j)
			}
			seen++
		})
		if seen != r.Count() {
			t.Errorf("region %v: Each yielded %d, Count says %d", r, seen, r.Count())
		}
	}
}

func TestSplitPreservesPairsExactly(t *testing.T) {
	r := Root(16)
	type pair struct{ i, j int }
	seen := map[pair]int{}
	var walk func(Region)
	var leaves int
	walk = func(rg Region) {
		if rg.Count() <= 2 {
			leaves++
			rg.Each(func(i, j int) { seen[pair{i, j}]++ })
			return
		}
		for _, c := range rg.Split() {
			walk(c)
		}
	}
	walk(r)
	if int64(len(seen)) != r.Count() {
		t.Fatalf("coverage: %d distinct pairs, want %d", len(seen), r.Count())
	}
	for pr, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v produced %d times", pr, c)
		}
	}
	if leaves < 8 {
		t.Fatalf("suspiciously few leaves: %d", leaves)
	}
}

func TestSplitDiscardsEmptyQuadrants(t *testing.T) {
	// The bottom-left quadrant of the root is entirely below the diagonal.
	for _, c := range Root(8).Split() {
		if c.Empty() {
			t.Fatalf("Split returned empty region %v", c)
		}
	}
}

func TestSplitChildCountsSumToParent(t *testing.T) {
	parents := []Region{Root(9), {1, 7, 3, 11}, {0, 2, 0, 16}}
	for _, r := range parents {
		if r.Count() <= 1 {
			continue
		}
		var sum int64
		for _, c := range r.Split() {
			sum += c.Count()
		}
		if sum != r.Count() {
			t.Errorf("region %v: children sum %d != parent %d", r, sum, r.Count())
		}
	}
}

func TestSplitUnitRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic splitting unit region")
		}
	}()
	Region{3, 4, 7, 8}.Split()
}

func TestSplitSingleRowOrColumn(t *testing.T) {
	// A 1 x k strip must split along columns only.
	r := Region{0, 1, 1, 9}
	kids := r.Split()
	var sum int64
	for _, c := range kids {
		if c.RowLo != 0 || c.RowHi != 1 {
			t.Fatalf("row range changed in %v", c)
		}
		sum += c.Count()
	}
	if sum != r.Count() {
		t.Fatalf("strip children sum %d != %d", sum, r.Count())
	}
	// A k x 1 band: only the part above the diagonal survives.
	r2 := Region{0, 8, 8, 9}
	kids2 := r2.Split()
	sum = 0
	for _, c := range kids2 {
		sum += c.Count()
	}
	if sum != r2.Count() {
		t.Fatalf("band children sum %d != %d", sum, r2.Count())
	}
}

func TestItemsDeduplicated(t *testing.T) {
	r := Region{2, 6, 4, 8} // rows {2..5}, cols {4..7}; overlap {4, 5}
	seen := map[int]int{}
	r.Items(func(it int) { seen[it]++ })
	if len(seen) != 6 {
		t.Fatalf("distinct items = %d, want 6 (%v)", len(seen), seen)
	}
	for it, c := range seen {
		if c != 1 {
			t.Fatalf("item %d visited %d times", it, c)
		}
	}
}

func TestDims(t *testing.T) {
	rows, cols := (Region{1, 4, 2, 8}).dims()
	if rows != 3 || cols != 6 {
		t.Fatalf("dims = %d, %d", rows, cols)
	}
}

func TestStringNonEmpty(t *testing.T) {
	if Root(4).String() == "" {
		t.Fatal("empty String")
	}
}

// Property: recursive splitting of Root(n) covers each pair exactly once
// for arbitrary n and leaf thresholds.
func TestQuickSplitCoverage(t *testing.T) {
	f := func(nRaw, leafRaw uint8) bool {
		n := int(nRaw%60) + 2
		leaf := int64(leafRaw%16) + 1
		count := make(map[[2]int]int)
		var walk func(Region) bool
		walk = func(r Region) bool {
			if r.Count() == 0 {
				return true
			}
			if r.Count() <= leaf {
				r.Each(func(i, j int) { count[[2]int{i, j}]++ })
				return true
			}
			var sum int64
			for _, c := range r.Split() {
				sum += c.Count()
				if !walk(c) {
					return false
				}
			}
			return sum == r.Count()
		}
		if !walk(Root(n)) {
			return false
		}
		if int64(len(count)) != TotalPairs(n) {
			return false
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count is consistent with brute-force enumeration for arbitrary
// rectangles.
func TestQuickCountBruteForce(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		r := Region{int(a % 20), int(a%20) + int(b%20), int(c % 20), int(c%20) + int(d%20)}
		var brute int64
		for i := r.RowLo; i < r.RowHi; i++ {
			for j := r.ColLo; j < r.ColHi; j++ {
				if i < j {
					brute++
				}
			}
		}
		return brute == r.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: OverlapCount matches brute-force membership counting.
func TestQuickOverlapCount(t *testing.T) {
	f := func(a, b, c, d uint8, itemsRaw []uint8) bool {
		r := Region{int(a % 15), int(a%15) + int(b%15), int(c % 15), int(c%15) + int(d%15)}
		// Build a sorted, distinct item list.
		set := map[int]bool{}
		for _, v := range itemsRaw {
			set[int(v%40)] = true
		}
		items := make([]int, 0, len(set))
		for v := range set {
			items = append(items, v)
		}
		sort.Ints(items)
		want := 0
		for _, v := range items {
			inRows := v >= r.RowLo && v < r.RowHi
			inCols := v >= r.ColLo && v < r.ColHi
			if inRows || inCols {
				want++
			}
		}
		return r.OverlapCount(items) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
