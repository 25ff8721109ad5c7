package core

import (
	"strings"
	"testing"

	"rocket/internal/obs"
	"rocket/internal/sim"
)

// TestPhaseTable pins what every phase is recorded as: its wire name (a
// Perfetto span name, so exported traces depend on the exact string), the
// one thread class Fig. 8 charges it to, and the one span kind it lands
// under in the flight recorder.
func TestPhaseTable(t *testing.T) {
	want := [numPhases]struct {
		name  string
		class Class
		kind  obs.Kind
	}{
		PhaseIO:         {"io", ClassIO, obs.KindIO},
		PhaseParse:      {"parse", ClassCPU, obs.KindCPU},
		PhaseH2D:        {"h2d", ClassH2D, obs.KindCopy},
		PhasePreprocess: {"preprocess", ClassGPU, obs.KindKernel},
		PhaseCompare:    {"compare", ClassGPU, obs.KindKernel},
		PhaseD2H:        {"d2h", ClassD2H, obs.KindCopy},
		PhasePost:       {"postprocess", ClassCPU, obs.KindCPU},
		PhaseFetch:      {"fetch", ClassNet, obs.KindFetch},
		PhaseSteal:      {"steal", ClassNet, obs.KindSteal},
		PhaseStoreRead:  {"store-read", ClassIO, obs.KindStore},
		PhaseStoreWrite: {"store-write", ClassIO, obs.KindStore},
	}
	seen := map[string]Phase{}
	for p := Phase(0); p < numPhases; p++ {
		if phases[p] != want[p] {
			t.Errorf("phase %d is %+v, want %+v", p, phases[p], want[p])
		}
		if p.String() != want[p].name {
			t.Errorf("phase %d prints as %q, want %q", p, p, want[p].name)
		}
		if prev, dup := seen[p.String()]; dup {
			t.Errorf("phases %d and %d share the name %q", prev, p, p)
		}
		seen[p.String()] = p
	}
	if Phase(99).String() != "phase(99)" || Class(99).String() != "class(99)" {
		t.Error("unknown values should format numerically")
	}
	for c := Class(0); c < numClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
}

// TestRecordWritesOneSpanAndBumpsTheTable drives runtime.record directly:
// a recorded interval becomes one span on lane 0 carrying the item in Arg
// and the second item plus one in Arg2 (0 when there is none), and the
// busy/count table moves whether or not a recorder is attached.
func TestRecordWritesOneSpanAndBumpsTheTable(t *testing.T) {
	for _, rec := range []*obs.Recorder{nil, obs.New(1, 0)} {
		rt := &runtime{env: sim.NewEnv(), cfg: Config{Spans: rec}}
		rt.env.At(sim.Millis(10), func() {
			rt.record(PhaseParse, "n0/cpu", 3, -1, 0)
			rt.record(PhasePreprocess, "n0/gpu0", 3, -1, sim.Millis(7))
			rt.record(PhaseCompare, "n0/gpu0", 2, 7, sim.Millis(8))
			rt.record(PhaseStoreRead, "n0/store", -1, -1, sim.Millis(10))
		})
		rt.env.Run()

		ph := &rt.phases
		if got := ph.Busy(ClassGPU); got != sim.Millis(5) {
			t.Errorf("GPU busy %v, want 5ms", got)
		}
		if got := ph.BusyPhase(PhaseCompare); got != sim.Millis(2) {
			t.Errorf("compare busy %v, want 2ms", got)
		}
		if ph.Count(PhaseParse) != 1 || ph.Count(PhaseStoreRead) != 1 || ph.Count(PhaseIO) != 0 {
			t.Errorf("counts wrong: %+v", ph.count)
		}
		if s := ph.Summary(); s != "GPU      5.000ms\nCPU      10.000ms\n" {
			t.Errorf("summary = %q", s)
		}

		snap := rec.Snapshot()
		if rec == nil {
			if snap.Recorded != 0 {
				t.Error("nil recorder recorded spans")
			}
			continue
		}
		want := []obs.Span{
			{Start: 0, End: sim.Millis(10), Kind: obs.KindCPU, Track: "n0/cpu", Name: "parse", Arg: 3},
			{Start: sim.Millis(7), End: sim.Millis(10), Kind: obs.KindKernel, Track: "n0/gpu0", Name: "preprocess", Arg: 3},
			{Start: sim.Millis(8), End: sim.Millis(10), Kind: obs.KindKernel, Track: "n0/gpu0", Name: "compare", Arg: 2, Arg2: 8},
			{Start: sim.Millis(10), End: sim.Millis(10), Kind: obs.KindStore, Track: "n0/store", Name: "store-read", Arg: -1},
		}
		if len(snap.Spans) != len(want) {
			t.Fatalf("recorded %d spans, want %d", len(snap.Spans), len(want))
		}
		for i, s := range snap.Spans {
			if s != want[i] {
				t.Errorf("span %d = %+v, want %+v", i, s, want[i])
			}
		}
		var b strings.Builder
		if err := snap.WriteTimeline(&b, 0); err != nil {
			t.Fatal(err)
		}
		for _, row := range []string{"== n0/gpu0 ==", "compare     pair (2, 7)", "preprocess  item 3", "store-read  item -1"} {
			if !strings.Contains(b.String(), row) {
				t.Errorf("timeline lacks %q:\n%s", row, b.String())
			}
		}
	}
}

func TestRecordBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an interval that starts after now")
		}
	}()
	rt := &runtime{env: sim.NewEnv()}
	rt.record(PhaseIO, "n0/io", 0, -1, sim.Millis(2))
}
