package forensics

import (
	"math"
	"testing"
	"testing/quick"

	"rocket/internal/sim"
	"rocket/internal/stats"
)

func TestCostModelDefaults(t *testing.T) {
	a := New(Params{})
	if a.NumItems() != DefaultN {
		t.Fatalf("n = %d", a.NumItems())
	}
	if a.ItemSize() != SlotBytes || a.ResultSize() != 8 {
		t.Fatal("sizes wrong")
	}
	if a.Name() != "forensics" {
		t.Fatal("name wrong")
	}
	if a.PostprocessTime(0, 1) != 0 {
		t.Fatal("postprocess should be 0")
	}
}

func TestCostModelCalibration(t *testing.T) {
	a := New(Params{N: 500, Seed: 3})
	var parse, cmp stats.Summary
	for i := 0; i < 500; i++ {
		parse.Add(a.ParseTime(i).Millis())
	}
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			cmp.Add(a.CompareTime(i, j).Millis())
		}
	}
	if math.Abs(parse.Mean()-130.8) > 3 {
		t.Errorf("parse mean %.2f ms, want ~130.8", parse.Mean())
	}
	if math.Abs(parse.Std()-14.11) > 3 {
		t.Errorf("parse std %.2f, want ~14.11", parse.Std())
	}
	if math.Abs(cmp.Mean()-1.1) > 0.05 {
		t.Errorf("compare mean %.3f ms, want ~1.1", cmp.Mean())
	}
	// The forensics workload is regular: tight spread.
	if cmp.Std() > 0.05 {
		t.Errorf("compare std %.4f, want regular (~0.01)", cmp.Std())
	}
}

func TestDurationsDeterministic(t *testing.T) {
	a1, a2 := New(Params{N: 10, Seed: 9}), New(Params{N: 10, Seed: 9})
	for i := 0; i < 10; i++ {
		if a1.ParseTime(i) != a2.ParseTime(i) {
			t.Fatal("parse time not a pure function of (seed, item)")
		}
		if a1.FileSize(i) != a2.FileSize(i) {
			t.Fatal("file size not deterministic")
		}
	}
	if a1.CompareTime(2, 5) != a2.CompareTime(2, 5) {
		t.Fatal("compare time not deterministic")
	}
	if a1.CompareTime(2, 5) == a1.CompareTime(2, 6) {
		t.Fatal("compare time ignores pair")
	}
}

func TestMeanCosts(t *testing.T) {
	a := New(Params{})
	parse, pre, cmp, post, fb := a.MeanCosts()
	if parse != sim.Millis(130.8) || pre != sim.Millis(20.5) || cmp != sim.Millis(1.1) || post != 0 {
		t.Fatal("mean costs do not match Table 1")
	}
	if fb != MeanFileBytes {
		t.Fatal("file bytes wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	img := &Image{W: 37, H: 23, Pix: make([]uint8, 37*23)}
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	raw, err := encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != img.W || got.H != img.H {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	for i := range img.Pix {
		if got.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d: %d != %d", i, got.Pix[i], img.Pix[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGICxxxxxxxxxxxxxxxx"),
		append([]byte(imageMagic), make([]byte, 8)...), // zero dims
	}
	for i, c := range cases {
		if _, err := decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestEncodeValidatesBuffer(t *testing.T) {
	if _, err := encode(&Image{W: 4, H: 4, Pix: make([]uint8, 3)}); err == nil {
		t.Fatal("mismatched buffer accepted")
	}
}

func TestNCCBasics(t *testing.T) {
	a := []float32{1, -1, 2, -2, 3, -3}
	if v, err := ncc(a, a); err != nil || math.Abs(v-1) > 1e-9 {
		t.Fatalf("self NCC = %v, %v; want 1", v, err)
	}
	b := make([]float32, len(a))
	for i := range a {
		b[i] = -a[i]
	}
	if v, _ := ncc(a, b); math.Abs(v+1) > 1e-9 {
		t.Fatalf("negated NCC = %v, want -1", v)
	}
	if _, err := ncc(a, a[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	zero := make([]float32, len(a))
	if v, err := ncc(a, zero); err != nil || v != 0 {
		t.Fatalf("zero-variance NCC = %v, %v; want 0", v, err)
	}
}

func TestPRNUIdentifiesCommonSource(t *testing.T) {
	p := RealParams{N: 12, Cameras: 3, Seed: 42}
	app, err := NewReal(p)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([][]float32, p.N)
	for i := 0; i < 12; i++ {
		v, err := app.LoadItem(i)
		if err != nil {
			t.Fatal(err)
		}
		patterns[i] = v.([]float32)
	}
	var same, diff stats.Summary
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			v, err := app.ComparePair(i, j, patterns[i], patterns[j])
			if err != nil {
				t.Fatal(err)
			}
			score := v.(float64)
			if app.Camera(i) == app.Camera(j) {
				same.Add(score)
			} else {
				diff.Add(score)
			}
		}
	}
	if same.Mean() < diff.Mean()+0.1 {
		t.Fatalf("PRNU separation failed: same-camera mean %.3f, different %.3f",
			same.Mean(), diff.Mean())
	}
	if same.Min() <= diff.Max() {
		t.Logf("warning: score overlap (same min %.3f, diff max %.3f)", same.Min(), diff.Max())
	}
}

func TestMemDatasetOutOfRange(t *testing.T) {
	d := &MemDataset{Files: [][]byte{{1}}}
	if _, err := d.File(5); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := d.File(-1); err == nil {
		t.Fatal("negative accepted")
	}
}

// Property: extraction output is zero-mean and finite for arbitrary images.
func TestQuickExtractPattern(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		img := &Image{W: 16, H: 12, Pix: make([]uint8, 16*12)}
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(256))
		}
		pat := extractPattern(img)
		var mean float64
		for _, v := range pat {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
			mean += float64(v)
		}
		mean /= float64(len(pat))
		return math.Abs(mean) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
