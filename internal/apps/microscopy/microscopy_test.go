package microscopy

import (
	"math"
	"testing"
	"testing/quick"

	"rocket/internal/stats"
)

func TestCostModelDefaults(t *testing.T) {
	a := New(Params{})
	if a.NumItems() != DefaultN || a.Name() != "microscopy" {
		t.Fatal("defaults wrong")
	}
	if a.ItemSize() != SlotBytes {
		t.Fatal("slot size wrong")
	}
	if a.PreprocessTime(3) != 0 {
		t.Fatal("microscopy has no pre-processing stage")
	}
}

func TestCompareTimesHeavyTailed(t *testing.T) {
	a := New(Params{N: 256, Seed: 1})
	var s stats.Summary
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			s.Add(a.CompareTime(i, j).Millis())
		}
	}
	if math.Abs(s.Mean()-564.3)/564.3 > 0.1 {
		t.Errorf("compare mean %.1f, want ~564.3", s.Mean())
	}
	if s.Std() < 200 {
		t.Errorf("compare std %.1f; microscopy must be highly irregular (~348)", s.Std())
	}
	if s.Max() < 2*s.Mean() {
		t.Errorf("no heavy tail: max %.1f vs mean %.1f", s.Max(), s.Mean())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := &Particle{ID: 7, Points: []Point{{1, 2}, {-3.5, 4.25}}}
	raw, err := encodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || len(got.Points) != 2 || got.Points[1].Y != 4.25 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := decodeJSON([]byte("{broken")); err == nil {
		t.Fatal("broken JSON accepted")
	}
	if _, err := decodeJSON([]byte(`{"id":1,"points":[]}`)); err == nil {
		t.Fatal("empty particle accepted")
	}
}

func TestCenteredAndRotated(t *testing.T) {
	p := &Particle{Points: []Point{{0, 0}, {2, 0}, {0, 2}, {2, 2}}}
	c := p.centered()
	cc := c.centroid()
	if math.Abs(cc.X) > 1e-12 || math.Abs(cc.Y) > 1e-12 {
		t.Fatalf("centroid after centering = %+v", cc)
	}
	r := c.rotated(math.Pi / 2)
	// (1, 1) rotated 90 degrees -> (-1, 1).
	found := false
	for _, pt := range r.Points {
		if math.Abs(pt.X+1) < 1e-9 && math.Abs(pt.Y-1) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rotation wrong: %+v", r.Points)
	}
}

func TestCrossTermPeaksAtAlignment(t *testing.T) {
	tpl := defaultTemplate()
	base := &Particle{Points: tpl.points()}
	aligned := crossTerm(base, base, 5)
	rotated := crossTerm(base, base.rotated(1.0), 5)
	if aligned <= rotated {
		t.Fatalf("cross term aligned %v <= rotated %v", aligned, rotated)
	}
}

func TestGMML2SelfIsZero(t *testing.T) {
	tpl := defaultTemplate()
	p := &Particle{Points: tpl.points()}
	if l2 := gmmL2(p, p, 5); math.Abs(l2) > 1e-9 {
		t.Fatalf("self L2 = %v", l2)
	}
}

func TestRegisterRecoversRotation(t *testing.T) {
	tpl := defaultTemplate()
	base := &Particle{Points: tpl.points()}
	for _, want := range []float64{0.4, -1.2, 2.5} {
		// b is the template rotated by -want, so registering b onto the
		// base requires rotating it by +want.
		b := base.rotated(-want)
		reg := register(base, b, 4, 24)
		if math.Abs(angleDiff(reg.Theta, want)) > 0.05 {
			t.Errorf("recovered theta %.3f, want %.3f", reg.Theta, want)
		}
		if reg.Evals < 24 {
			t.Errorf("suspiciously few evaluations: %d", reg.Evals)
		}
	}
}

func angleDiff(a, b float64) float64 {
	d := a - b
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

func TestRegisterNoisyParticles(t *testing.T) {
	app, err := NewReal(RealParams{N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	particles := make([]*Particle, 4)
	for i := range particles {
		v, err := app.LoadItem(i)
		if err != nil {
			t.Fatal(err)
		}
		particles[i] = v.(*Particle)
	}
	v, err := app.ComparePair(0, 1, particles[0], particles[1])
	if err != nil {
		t.Fatal(err)
	}
	reg := v.(Registration)
	want := angleDiff(app.Theta(0), app.Theta(1))
	if math.Abs(angleDiff(reg.Theta, want)) > 0.15 {
		t.Fatalf("noisy registration theta %.3f, want %.3f (truths %.3f, %.3f)",
			reg.Theta, want, app.Theta(0), app.Theta(1))
	}
	if reg.Score <= 0 || reg.L2 < 0 {
		t.Fatalf("degenerate registration: %+v", reg)
	}
}

func TestEvalsVaryAcrossPairs(t *testing.T) {
	app, err := NewReal(RealParams{N: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	particles := make([]*Particle, 6)
	for i := range particles {
		v, _ := app.LoadItem(i)
		particles[i] = v.(*Particle)
	}
	evals := map[int]bool{}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			v, _ := app.ComparePair(i, j, particles[i], particles[j])
			evals[v.(Registration).Evals] = true
		}
	}
	if len(evals) < 2 {
		t.Fatalf("all registrations took identical work; expected data-dependent cost, got %v", evals)
	}
}

func TestObserveUnderLabeling(t *testing.T) {
	tpl := defaultTemplate()
	full := len(tpl.points())
	rng := stats.NewRNG(4)
	p, _ := tpl.Observe(rng, 0, 1, 0.5)
	if len(p.Points) == 0 {
		t.Fatal("no detections")
	}
	// With 50% efficiency and up to 2 detections each, counts should
	// differ from the template size essentially always.
	if len(p.Points) == full {
		t.Log("warning: detection count equals template size (possible but unlikely)")
	}
}

// Property: registration score is symmetric within tolerance and theta is
// in (-pi, pi] for arbitrary seeds.
func TestQuickRegistrationSane(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		tpl := defaultTemplate()
		a, _ := tpl.Observe(rng, 0, 2, 0.8)
		b, _ := tpl.Observe(rng, 1, 2, 0.8)
		reg := register(a, b, 6, 12)
		if reg.Theta < -2*math.Pi || reg.Theta > 2*math.Pi {
			return false
		}
		return reg.Score > 0 && !math.IsNaN(reg.L2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
