package phylo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rocket/internal/stats"
)

func TestCostModelDefaults(t *testing.T) {
	a := New(Params{})
	if a.NumItems() != DefaultN || a.Name() != "bioinformatics" {
		t.Fatal("defaults wrong")
	}
	if a.ItemSize() != SlotBytes {
		t.Fatal("slot size wrong")
	}
}

func TestCompareTimesIrregular(t *testing.T) {
	a := New(Params{N: 100, Seed: 1})
	var s stats.Summary
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			s.Add(a.CompareTime(i, j).Millis())
		}
	}
	if math.Abs(s.Mean()-2.1) > 0.2 {
		t.Errorf("compare mean %.3f, want ~2.1", s.Mean())
	}
	if s.Std() < 0.5 {
		t.Errorf("compare std %.3f; bioinformatics must be irregular (~0.79)", s.Std())
	}
}

func TestFASTARoundTrip(t *testing.T) {
	seqs := []string{
		"ACDEFGHIKLMNPQRSTVWY",
		strings.Repeat("ACDEFG", 30), // forces line wrapping
		"MKVL",
	}
	raw, err := encodeFASTA("test", seqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFASTA(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("got %d sequences, want %d", len(got), len(seqs))
	}
	for i := range seqs {
		if got[i] != seqs[i] {
			t.Fatalf("sequence %d: %q != %q", i, got[i], seqs[i])
		}
	}
}

func TestDecodeFASTARejectsGarbage(t *testing.T) {
	if _, err := decodeFASTA([]byte("not deflate data")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBuildCVValidation(t *testing.T) {
	if _, err := buildCV([]string{"ACDEFG"}, 2); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := buildCV([]string{"AC"}, 5); err == nil {
		t.Fatal("too-short sequences accepted")
	}
}

func TestBuildCVSortedSparse(t *testing.T) {
	rng := stats.NewRNG(1)
	cv, err := buildCV(randomProteome(rng, 5, 200), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Len() == 0 {
		t.Fatal("empty CV")
	}
	for i := 1; i < cv.Len(); i++ {
		if cv.Keys[i-1] >= cv.Keys[i] {
			t.Fatal("keys not strictly ascending")
		}
	}
	if cv.normV <= 0 {
		t.Fatal("zero norm")
	}
}

func TestCorrelationSelfIsOne(t *testing.T) {
	rng := stats.NewRNG(2)
	cv, err := buildCV(randomProteome(rng, 5, 300), 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := correlation(cv, cv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-6 {
		t.Fatalf("self correlation = %v", c)
	}
	if d := distance(c); math.Abs(d) > 1e-6 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestCorrelationMismatchedK(t *testing.T) {
	rng := stats.NewRNG(3)
	p := randomProteome(rng, 3, 200)
	a, _ := buildCV(p, 3)
	b, _ := buildCV(p, 4)
	if _, err := correlation(a, b); err == nil {
		t.Fatal("mismatched k accepted")
	}
}

func TestRelatedSpeciesCloser(t *testing.T) {
	app, err := NewReal(RealParams{N: 9, Groups: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cvs := make([]*CV, 9)
	for i := range cvs {
		v, err := app.LoadItem(i)
		if err != nil {
			t.Fatal(err)
		}
		cvs[i] = v.(*CV)
	}
	var same, diff stats.Summary
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			v, err := app.ComparePair(i, j, cvs[i], cvs[j])
			if err != nil {
				t.Fatal(err)
			}
			d := v.(float64)
			if d < 0 || d > 1 {
				t.Fatalf("distance %v out of [0,1]", d)
			}
			if app.Clade(i) == app.Clade(j) {
				same.Add(d)
			} else {
				diff.Add(d)
			}
		}
	}
	if same.Max() >= diff.Min() {
		t.Fatalf("clade separation failed: same-clade max %.4f >= cross-clade min %.4f",
			same.Max(), diff.Min())
	}
}

func TestUPGMARecoverGroups(t *testing.T) {
	// Distances: two tight groups {0,1,2} and {3,4,5}.
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				continue
			}
			if (i < 3) == (j < 3) {
				d[i][j] = 0.1
			} else {
				d[i][j] = 0.9
			}
		}
	}
	root, err := UPGMA(d)
	if err != nil {
		t.Fatal(err)
	}
	left := root.Left.Leaves()
	right := root.Right.Leaves()
	if len(left)+len(right) != n {
		t.Fatalf("tree lost leaves: %v + %v", left, right)
	}
	sameSide := func(leaves []int) bool {
		for _, l := range leaves {
			if (l < 3) != (leaves[0] < 3) {
				return false
			}
		}
		return true
	}
	if !sameSide(left) || !sameSide(right) {
		t.Fatalf("root split does not separate groups: %v | %v", left, right)
	}
	if root.Height <= root.Left.Height || root.Height <= root.Right.Height {
		t.Fatal("merge heights not increasing")
	}
}

func TestUPGMAValidation(t *testing.T) {
	if _, err := UPGMA(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := UPGMA([][]float64{{0, 1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestUPGMASingleLeaf(t *testing.T) {
	root, err := UPGMA([][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !root.isLeaf() || root.Species != 0 {
		t.Fatal("single-species tree wrong")
	}
}

func TestNewick(t *testing.T) {
	root := &Node{
		Species: -1,
		Height:  0.5,
		Left:    &Node{Species: 0},
		Right: &Node{
			Species: -1, Height: 0.2,
			Left:  &Node{Species: 1},
			Right: &Node{Species: 2},
		},
	}
	got := root.Newick([]string{"A", "B", "C"})
	want := "(A,(B,C):0.2000):0.5000;"
	if got != want {
		t.Fatalf("newick = %q, want %q", got, want)
	}
	// Missing names fall back to spN.
	if !strings.Contains(root.Newick([]string{"A"}), "sp2") {
		t.Fatal("fallback names missing")
	}
}

func TestEndToEndTree(t *testing.T) {
	app, err := NewReal(RealParams{N: 6, Groups: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cvs := make([]*CV, 6)
	for i := range cvs {
		v, err := app.LoadItem(i)
		if err != nil {
			t.Fatal(err)
		}
		cvs[i] = v.(*CV)
	}
	d := make([][]float64, 6)
	for i := range d {
		d[i] = make([]float64, 6)
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			v, _ := app.ComparePair(i, j, cvs[i], cvs[j])
			d[i][j] = v.(float64)
			d[j][i] = d[i][j]
		}
	}
	root, err := UPGMA(d)
	if err != nil {
		t.Fatal(err)
	}
	// The root split must separate the two clades (even=clade0, odd=clade1).
	for _, side := range [][]int{root.Left.Leaves(), root.Right.Leaves()} {
		for _, l := range side {
			if app.Clade(l) != app.Clade(side[0]) {
				t.Fatalf("root split mixes clades: %v | %v",
					root.Left.Leaves(), root.Right.Leaves())
			}
		}
	}
}

// Property: correlation is symmetric and within [-1, 1] for arbitrary
// generated proteome pairs.
func TestQuickCorrelationBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a, err := buildCV(randomProteome(rng, 3, 150), 3)
		if err != nil {
			return false
		}
		b, err := buildCV(randomProteome(rng, 3, 150), 3)
		if err != nil {
			return false
		}
		ab, err1 := correlation(a, b)
		ba, err2 := correlation(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab == ba && ab >= -1-1e-9 && ab <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborJoiningRecoversGroups(t *testing.T) {
	// Two tight groups with additive distances.
	n := 6
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				continue
			}
			if (i < 3) == (j < 3) {
				d[i][j] = 0.2
			} else {
				d[i][j] = 1.0
			}
		}
	}
	root, err := NeighborJoining(d)
	if err != nil {
		t.Fatal(err)
	}
	leaves := root.Leaves()
	if len(leaves) != n {
		t.Fatalf("tree has %d leaves, want %d", len(leaves), n)
	}
	seen := map[int]bool{}
	for _, l := range leaves {
		if seen[l] {
			t.Fatalf("duplicate leaf %d", l)
		}
		seen[l] = true
	}
	// Some subtree must contain exactly one full group.
	found := false
	var walk func(*Node)
	walk = func(nd *Node) {
		if nd == nil || nd.isLeaf() {
			return
		}
		ls := nd.Leaves()
		if len(ls) == 3 {
			same := true
			for _, l := range ls {
				if (l < 3) != (ls[0] < 3) {
					same = false
				}
			}
			if same {
				found = true
			}
		}
		walk(nd.Left)
		walk(nd.Right)
	}
	walk(root)
	if !found {
		t.Fatalf("no subtree isolates a group: %s", root.Newick(nil))
	}
}

func TestNeighborJoiningValidation(t *testing.T) {
	if _, err := NeighborJoining(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := NeighborJoining([][]float64{{0, 1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestNeighborJoiningSmallInputs(t *testing.T) {
	one, err := NeighborJoining([][]float64{{0}})
	if err != nil || !one.isLeaf() {
		t.Fatalf("single leaf: %v %v", one, err)
	}
	two, err := NeighborJoining([][]float64{{0, 1}, {1, 0}})
	if err != nil || two.isLeaf() || len(two.Leaves()) != 2 {
		t.Fatalf("two leaves: %v %v", two, err)
	}
}

func TestNeighborJoiningEndToEnd(t *testing.T) {
	app, err := NewReal(RealParams{N: 8, Groups: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cvs := make([]*CV, 8)
	for i := range cvs {
		v, err := app.LoadItem(i)
		if err != nil {
			t.Fatal(err)
		}
		cvs[i] = v.(*CV)
	}
	d := make([][]float64, 8)
	for i := range d {
		d[i] = make([]float64, 8)
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			v, _ := app.ComparePair(i, j, cvs[i], cvs[j])
			d[i][j] = v.(float64)
			d[j][i] = d[i][j]
		}
	}
	root, err := NeighborJoining(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Leaves()) != 8 {
		t.Fatalf("tree lost species: %v", root.Leaves())
	}
}
