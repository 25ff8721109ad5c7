package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical values across seeds", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 20; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(3)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want ~0.1", i, got)
		}
	}
}

func TestIntnZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.NormFloat64())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", s.Mean())
	}
	if math.Abs(s.Std()-1) > 0.02 {
		t.Errorf("normal std = %v, want ~1", s.Std())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHashRNGOrderIndependence(t *testing.T) {
	a := HashRNG(1, 10, 20).Uint64()
	// Recreate with identical inputs: must match regardless of other draws.
	_ = HashRNG(1, 99, 99).Uint64()
	b := HashRNG(1, 10, 20).Uint64()
	if a != b {
		t.Fatal("HashRNG not a pure function of inputs")
	}
	if HashRNG(1, 10, 20).Uint64() == HashRNG(1, 20, 10).Uint64() {
		t.Fatal("HashRNG symmetric in (a, b); arguments must matter")
	}
	if HashRNG(1, 10, 20).Uint64() == HashRNG(2, 10, 20).Uint64() {
		t.Fatal("HashRNG ignores seed")
	}
}

// TestHashSampleStreamIdentity pins the hashed-sample streams of every
// distribution the three cost models draw from (Table 1 parameters): the
// goldens are d.Sample(HashRNG(seed, a, b)) as the allocating path computed
// them before HashSample existed, so a change to the generator, the hash,
// or a distribution's draw order fails here before it moves an experiment.
func TestHashSampleStreamIdentity(t *testing.T) {
	triples := [5][3]uint64{{1, 0, 1}, {1, 7, 0x9a45e}, {2, 1659, 0xf11e}, {0xdeadbeef, 123, 456}, {0, 0, 0}}
	cases := []struct {
		d    Dist
		want [5]uint64
	}{
		// forensics: parse, pre-process, compare, file size.
		{Normal{Mu: 130.8, Sigma: 14.11, Min: 1}, [5]uint64{0x40603f1476807fbd, 0x4064c6c54178ea96, 0x40603ec87ecd8233, 0x405ed66b58c316c5, 0x40611a8a77e9af34}},
		{Normal{Mu: 20.5, Sigma: 0.02, Min: 0.1}, [5]uint64{0x40347fb303c6620b, 0x40348cd97cbb97b0, 0x40347fb2273f8b9e, 0x40347d4bf9ae7224, 0x4034823016d75c3b}},
		{Normal{Mu: 1.1, Sigma: 0.01, Min: 0.1}, [5]uint64{0x3ff19731b7cca9f1, 0x3ff200657f76571b, 0x3ff1972ad395f68c, 0x3ff183f9670d2aba, 0x3ff1ab1a50547b73}},
		{Normal{Mu: 3900000, Sigma: 400000, Min: 1 << 20}, [5]uint64{0x414d934cfb82571f, 0x4152b4eff59b2ca0, 0x414d92c989cdc194, 0x414c24b569dcd37d, 0x414f0f06d54c5ecc}},
		// phylo: parse, pre-process, compare, file size.
		{Normal{Mu: 36.9, Sigma: 14.79, Min: 1}, [5]uint64{0x40420401e6fb4e79, 0x405281298d92c4ea, 0x404202c3633b1b1a, 0x403d175e25d11d74, 0x40459c2830c0a986}},
		{Normal{Mu: 27.0, Sigma: 4.90, Min: 1}, [5]uint64{0x403ab6529cdbd473, 0x4043a6122fc415c7, 0x403ab57f8fd09e82, 0x403869b5f3f33c79, 0x403d1805dc1b448a}},
		{NewLogNormal(2.1, 0.79), [5]uint64{0x3ffec8909fd52312, 0x4013977a10664db2, 0x3ffec6ae4deec321, 0x3ff9f3cdc30b6827, 0x40025e731986f104}},
		{NewLogNormal(720000, 400000), [5]uint64{0x4122a19adacb1598, 0x4141a5f2a38d0552, 0x41229ffab9d80393, 0x411d36968a095dbd, 0x4127f914bce2c102}},
		// microscopy: parse, compare, file size.
		{Normal{Mu: 27.4, Sigma: 1.56, Min: 1}, [5]uint64{0x403b4ef18cd845ba, 0x403f50aa678e9e0f, 0x403b4eae5bc2f0a2, 0x403a938c798d2d60, 0x403c110d5c048066}},
		{NewLogNormal(564.3, 348), [5]uint64{0x407d08edd33ac9e4, 0x409f32a70e20d76f, 0x407d0627f9d24140, 0x40763ea0b9121728, 0x4083217216b2477c}},
		{Normal{Mu: 586000, Sigma: 60000, Min: 10000}, [5]uint64{0x4121c697ca1b0113, 0x41267a898d209bf3, 0x4121c648ec4840f2, 0x4120eaa33f847ee5, 0x4122aa6db32dd27b}},
	}
	for _, c := range cases {
		for k, tr := range triples {
			got := HashSample(c.d, tr[0], tr[1], tr[2])
			if math.Float64bits(got) != c.want[k] {
				t.Errorf("%v HashSample%v = %#x, want %#x", c.d, tr, math.Float64bits(got), c.want[k])
			}
			if ref := c.d.Sample(HashRNG(tr[0], tr[1], tr[2])); ref != got {
				t.Errorf("%v HashSample%v = %v, HashRNG path gives %v", c.d, tr, got, ref)
			}
		}
	}
	// The remaining distributions and a Dist from outside the package
	// must agree with the allocating path too.
	for _, d := range []Dist{Uniform{Lo: 2, Hi: 5}, Exponential{MeanV: 3}, Constant{V: 7}, shifted{Normal{Mu: 1, Sigma: 1, Min: -10}}} {
		if got, ref := HashSample(d, 9, 8, 7), d.Sample(HashRNG(9, 8, 7)); got != ref {
			t.Errorf("%v HashSample = %v, HashRNG path gives %v", d, got, ref)
		}
	}
	d := Dist(NewLogNormal(2.1, 0.79))
	if n := testing.AllocsPerRun(100, func() { sink = HashSample(d, 1, 2, 3) }); n != 0 {
		t.Errorf("HashSample allocates %.1f objects per draw, want 0", n)
	}
}

var sink float64

// shifted is a Dist HashSample has no stack path for.
type shifted struct{ Normal }

func (s shifted) Sample(r *RNG) float64 { return s.Normal.Sample(r) + 1 }

func TestForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("forked stream mirrors parent")
	}
}

func TestConstantDist(t *testing.T) {
	c := Constant{V: 3.5}
	if c.Sample(NewRNG(1)) != 3.5 || c.Mean() != 3.5 {
		t.Fatal("constant distribution is not constant")
	}
}

func TestNormalDistMoments(t *testing.T) {
	d := Normal{Mu: 130.8, Sigma: 14.11}
	r := NewRNG(2)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(d.Sample(r))
	}
	if math.Abs(s.Mean()-130.8) > 0.5 {
		t.Errorf("mean %v, want ~130.8", s.Mean())
	}
	if math.Abs(s.Std()-14.11) > 0.5 {
		t.Errorf("std %v, want ~14.11", s.Std())
	}
}

func TestNormalClampsAtMin(t *testing.T) {
	d := Normal{Mu: 1, Sigma: 100, Min: 0.1}
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 0.1 {
			t.Fatalf("sample %v below Min", v)
		}
	}
}

func TestLogNormalMoments(t *testing.T) {
	d := NewLogNormal(564.3, 348)
	r := NewRNG(4)
	var s Summary
	for i := 0; i < 300000; i++ {
		s.Add(d.Sample(r))
	}
	if math.Abs(s.Mean()-564.3)/564.3 > 0.02 {
		t.Errorf("mean %v, want ~564.3", s.Mean())
	}
	if math.Abs(s.Std()-348)/348 > 0.05 {
		t.Errorf("std %v, want ~348", s.Std())
	}
	if s.Min() <= 0 {
		t.Errorf("log-normal produced non-positive sample %v", s.Min())
	}
}

// perDrawLogNormal is the log-normal as it sampled before NewLogNormal
// existed: the parameters of the underlying normal derived again on every
// draw.
type perDrawLogNormal struct{ meanV, stdV float64 }

func (l perDrawLogNormal) Sample(r *RNG) float64 {
	v := l.stdV * l.stdV
	m2 := l.meanV * l.meanV
	sigma2 := math.Log(1 + v/m2)
	mu := math.Log(l.meanV) - sigma2/2
	sigma := math.Sqrt(sigma2)
	return math.Exp(mu + sigma*r.NormFloat64())
}

func (l perDrawLogNormal) Mean() float64  { return l.meanV }
func (l perDrawLogNormal) String() string { return "perDrawLogNormal" }

// Deriving the parameters once is the same arithmetic in the same order,
// so every draw of the three log-normals the cost models use is the same
// float, bit for bit, as when they were derived per draw.
func TestLogNormalHoistedParamsBitIdentical(t *testing.T) {
	for _, p := range [][2]float64{{2.1, 0.79}, {720000, 400000}, {564.3, 348}} {
		d, ref := Dist(NewLogNormal(p[0], p[1])), perDrawLogNormal{p[0], p[1]}
		for k := uint64(0); k < 10000; k++ {
			seed, a, b := k%3, k*2654435761, k^0xfa57a
			got, want := HashSample(d, seed, a, b), ref.Sample(HashRNG(seed, a, b))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v draw (%d, %d, %d) = %#x, derived per draw %#x", d, seed, a, b, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestUniformAndExponential(t *testing.T) {
	r := NewRNG(6)
	u := Uniform{Lo: 2, Hi: 4}
	var su Summary
	for i := 0; i < 100000; i++ {
		v := u.Sample(r)
		if v < 2 || v >= 4 {
			t.Fatalf("uniform sample %v out of range", v)
		}
		su.Add(v)
	}
	if math.Abs(su.Mean()-3) > 0.02 {
		t.Errorf("uniform mean %v, want ~3", su.Mean())
	}
	e := Exponential{MeanV: 5}
	var se Summary
	for i := 0; i < 100000; i++ {
		se.Add(e.Sample(r))
	}
	if math.Abs(se.Mean()-5)/5 > 0.03 {
		t.Errorf("exponential mean %v, want ~5", se.Mean())
	}
}

func TestSummaryWelford(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if math.Abs(s.Std()-2.138) > 0.001 {
		t.Fatalf("std = %v, want ~2.138 (sample std)", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10, true)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1) // underflow
	h.Add(10) // boundary -> overflow
	h.Add(99) // overflow
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %d, want 1", i, c)
		}
	}
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Fatalf("under/over = %d/%d", h.Underflow(), h.Overflow())
	}
	if h.N() != 13 {
		t.Fatalf("N = %d", h.N())
	}
	if bc := h.BinCenter(0); bc != 0.5 {
		t.Fatalf("BinCenter(0) = %v", bc)
	}
	if p := h.Percentile(0.5); p < 3 || p > 7 {
		t.Fatalf("median = %v", p)
	}
	if h.Render(20) == "" {
		t.Fatal("empty render")
	}
}

func TestHistogramPercentileWithoutSamplesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 1, 2, false).Percentile(0.5)
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(60)
	ts.Add(0, 30)
	ts.Add(59, 30)
	ts.Add(61, 120)
	r := ts.Rate()
	if len(r) != 2 || r[0] != 1 || r[1] != 2 {
		t.Fatalf("rates = %v", r)
	}
	ts.Add(-5, 100) // ignored
	if ts.Rate()[0] != 1 {
		t.Fatal("negative time not ignored")
	}
}

// Property: Summary matches the two-pass mean for arbitrary inputs.
func TestQuickSummaryMean(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		var sum float64
		ok := true
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return s.N() == 0
		}
		want := sum / float64(n)
		if math.Abs(s.Mean()-want) > 1e-6*(1+math.Abs(want)) {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram conserves samples: N == sum(bins) + under + over.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 13, false)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
		}
		var total uint64
		for _, c := range h.Counts {
			total += c
		}
		return total+h.Underflow()+h.Overflow() == h.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
