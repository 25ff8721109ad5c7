package model

import (
	"testing"
	"testing/quick"

	"rocket/internal/sim"
)

var c = Costs{
	Parse:      sim.Millis(130.8),
	Preprocess: sim.Millis(20.5),
	Compare:    sim.Millis(1.1),
	Post:       0,
	FileBytes:  4.1e6,
}

func TestTGPU(t *testing.T) {
	// n=10, R=1: 10 preprocess + 45 comparisons.
	want := 10*sim.Millis(20.5) + 45*sim.Millis(1.1)
	if got := tGPU(c, 10, 1); got != want {
		t.Fatalf("tGPU = %v, want %v", got, want)
	}
	// R=2 doubles only the preprocess share.
	want2 := 20*sim.Millis(20.5) + 45*sim.Millis(1.1)
	if got := tGPU(c, 10, 2); got != want2 {
		t.Fatalf("tGPU(R=2) = %v, want %v", got, want2)
	}
}

func TestTCPU(t *testing.T) {
	want := 10 * sim.Millis(130.8)
	if got := tCPU(c, 10, 1); got != want {
		t.Fatalf("tCPU = %v, want %v", got, want)
	}
}

func TestTIO(t *testing.T) {
	got := tIO(c, 10, 1, 4.1e6) // 10 files at file-size bandwidth = 10s
	if got != 10*sim.Second {
		t.Fatalf("tIO = %v, want 10s", got)
	}
	if tIO(c, 10, 1, 0) != 0 {
		t.Fatal("zero bandwidth should yield 0 (treated as infinite)")
	}
}

func TestTminEqualsTGPUAtR1(t *testing.T) {
	if Tmin(c, 100) != tGPU(c, 100, 1) {
		t.Fatal("Tmin != tGPU(R=1)")
	}
}

func TestTminOnScalesWithSpeed(t *testing.T) {
	t1 := tminOn(c, 100, 1)
	t4 := tminOn(c, 100, 4)
	if t1 != 4*t4 {
		t.Fatalf("tminOn(4) = %v, want quarter of %v", t4, t1)
	}
	if tminOn(c, 100, 0) != 0 {
		t.Fatal("zero speed should yield 0")
	}
}

func TestEfficiency(t *testing.T) {
	bound := Tmin(c, 50)
	if got := Efficiency(c, 50, 1, bound); got != 1 {
		t.Fatalf("efficiency at bound = %v, want 1", got)
	}
	if got := Efficiency(c, 50, 1, 2*bound); got != 0.5 {
		t.Fatalf("efficiency at 2x bound = %v, want 0.5", got)
	}
	if Efficiency(c, 50, 1, 0) != 0 {
		t.Fatal("zero measured time must not divide by zero")
	}
}

func TestSpeedup(t *testing.T) {
	if speedup(10*sim.Second, 2*sim.Second) != 5 {
		t.Fatal("speedup wrong")
	}
	if speedup(time1(), 0) != 0 {
		t.Fatal("zero denominator")
	}
}

func time1() sim.Time { return sim.Second }

// Property: efficiency is monotonically decreasing in measured time and
// tGPU is monotonically increasing in R.
func TestQuickMonotonicity(t *testing.T) {
	f := func(nRaw uint8, r1Raw, r2Raw uint16) bool {
		n := int(nRaw%100) + 2
		r1 := 1 + float64(r1Raw)/1000
		r2 := r1 + float64(r2Raw)/1000
		if tGPU(c, n, r2) < tGPU(c, n, r1) {
			return false
		}
		m1 := Tmin(c, n)
		return Efficiency(c, n, 1, m1) >= Efficiency(c, n, 1, m1+sim.Second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
