package gpu

import (
	"testing"

	"rocket/internal/sim"
)

// models lists every known model.
var models = []Model{TitanXMaxwell, K20m, GTXTitan, GTX980, TitanXPascal, RTX2080Ti, K40m}

// Each model carries its own name, and no two share one.
func TestModelByName(t *testing.T) {
	if RTX2080Ti.Name != "RTX2080Ti" || RTX2080Ti.Generation != "Turing" {
		t.Errorf("RTX2080Ti = %+v", RTX2080Ti)
	}
	seen := map[string]bool{}
	for _, m := range models {
		if m.Name == "" || seen[m.Name] {
			t.Errorf("model name %q empty or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestModelsHavePositiveSpeeds(t *testing.T) {
	for _, m := range models {
		if m.Speed <= 0 || m.MemBytes <= 0 || m.PCIeBW <= 0 {
			t.Errorf("model %q has non-positive parameters: %+v", m.Name, m)
		}
	}
}

func TestBaselineIsTitanXMaxwell(t *testing.T) {
	if TitanXMaxwell.Speed != 1.0 {
		t.Fatalf("baseline speed = %v, want 1.0", TitanXMaxwell.Speed)
	}
}

func TestKernelTimeScaling(t *testing.T) {
	fast := New("t/fast", RTX2080Ti)
	slow := New("t/slow", K20m)
	base := sim.Millis(10)
	if fast.kernelTime(base) >= base {
		t.Errorf("faster GPU must shorten kernels: %v", fast.kernelTime(base))
	}
	if slow.kernelTime(base) <= base {
		t.Errorf("slower GPU must lengthen kernels: %v", slow.kernelTime(base))
	}
	d := New("t/base", TitanXMaxwell)
	if d.kernelTime(base) != base {
		t.Errorf("baseline device changed duration: %v", d.kernelTime(base))
	}
}

func TestTransferTime(t *testing.T) {
	d := New("t/d", TitanXMaxwell)
	// 12 GB at 12 GB/s = 1 s.
	got := d.TransferTime(12e9)
	if got != sim.Second {
		t.Errorf("TransferTime(12e9) = %v, want 1s", got)
	}
}

func TestDeviceResourcesIndependent(t *testing.T) {
	d := New("n0/gpu0", TitanXMaxwell)
	e := sim.NewEnv()
	var kernelEnd, copyEnd sim.Time
	d.Compute.UseFunc(e, sim.Millis(10), func(sim.Time) { kernelEnd = e.Now() })
	d.H2D.UseFunc(e, sim.Millis(10), func(sim.Time) { copyEnd = e.Now() })
	e.Run()
	if kernelEnd != sim.Millis(10) || copyEnd != sim.Millis(10) {
		t.Errorf("compute and copy engines must overlap: kernel %v copy %v", kernelEnd, copyEnd)
	}
}

func TestNewBadModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-speed model")
		}
	}()
	New("x", Model{Name: "broken"})
}

func TestLaunchKernelOccupiesCompute(t *testing.T) {
	e := sim.NewEnv()
	d := New("n0/gpu0", TitanXPascal) // speed 1.65
	base := sim.Millis(33)
	var intervals [][2]sim.Time
	for i := 0; i < 2; i++ {
		d.LaunchKernel(e, base, func(start sim.Time) {
			intervals = append(intervals, [2]sim.Time{start, e.Now()})
		})
	}
	e.Run()
	e.Close()
	dur := d.kernelTime(base)
	want := [][2]sim.Time{{0, dur}, {dur, 2 * dur}}
	for i := range want {
		if intervals[i] != want[i] {
			t.Fatalf("kernel %d occupancy %v, want %v (compute queue must serialize)",
				i, intervals[i], want[i])
		}
	}
	var busy sim.Time
	for _, iv := range intervals {
		busy += iv[1] - iv[0]
	}
	if busy != 2*dur {
		t.Fatalf("compute busy %v, want %v", busy, 2*dur)
	}
}

func TestCopyEnginesIndependent(t *testing.T) {
	e := sim.NewEnv()
	d := New("n0/gpu0", TitanXMaxwell)
	var h2dEnd, d2hEnd sim.Time
	size := int64(12e9) // 1 second on the default PCIe engine
	d.CopyH2D(e, size, func(sim.Time) { h2dEnd = e.Now() })
	d.CopyD2H(e, size, func(sim.Time) { d2hEnd = e.Now() })
	e.Run()
	e.Close()
	if h2dEnd != sim.Second || d2hEnd != sim.Second {
		t.Fatalf("copies ended at %v / %v, want 1s each (independent engines)", h2dEnd, d2hEnd)
	}
}

func TestThrottleStretchesKernels(t *testing.T) {
	d := New("n/g", TitanXMaxwell)
	e := sim.NewEnv()
	factor := 1.0
	d.SetThrottle(func() float64 { return factor })
	var ends []sim.Time
	d.LaunchKernel(e, sim.Millis(10), func(sim.Time) { ends = append(ends, e.Now()) })
	factor = 4
	d.LaunchKernel(e, sim.Millis(10), func(sim.Time) { ends = append(ends, e.Now()) })
	factor = 0.25 // below 1 clamps to full speed
	d.LaunchKernel(e, sim.Millis(10), func(sim.Time) { ends = append(ends, e.Now()) })
	e.Run()
	e.Close()
	want := []sim.Time{sim.Millis(10), sim.Millis(50), sim.Millis(60)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("kernel %d ended at %v, want %v (ends=%v)", i, ends[i], want[i], ends)
		}
	}
	d.SetThrottle(nil)
	if d.slowdown() != 1 {
		t.Fatal("nil throttle must mean full speed")
	}
}
