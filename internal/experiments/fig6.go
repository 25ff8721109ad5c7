package experiments

import (
	"fmt"
	"slices"
	"strings"

	"rocket/internal/core"
	"rocket/internal/obs"
	"rocket/internal/sim"
)

// fig6 reproduces Fig. 6: a section of a profiling trace of the forensics
// application visualized per resource ("rows represent threads and boxes
// represent executed tasks"). It runs a small slice of the workload with
// a flight recorder attached and prints the timeline, plus the asynchrony
// evidence the paper draws from the figure: while the GPU executes
// comparisons, parsing, I/O, and transfers proceed concurrently on their
// own threads. It ignores Options.Scale: the slice always runs at scale
// 100, small enough to print.
func fig6(o Options) (Result, error) {
	o = o.normalized()
	s := ForensicsSetup(Options{Scale: 100, Seed: o.Seed, Trace: o.Trace})
	rec := obs.New(1, 0)
	m, err := s.runDAS5(1, func(cfg *core.Config) { cfg.Spans = rec })
	if err != nil {
		return nil, err
	}
	snap := rec.Snapshot()
	title := fmt.Sprintf("Fig 6: task trace, forensics, 1 node (n=%d, %d tasks recorded)",
		s.App.NumItems(), len(snap.Spans))
	// Quantify overlap: how much of the GPU-busy interval also has CPU or
	// I/O activity in flight — the "GPU remains fully utilized while slow
	// I/O and CPU tasks run in the background" observation.
	overlap := overlappedTime(snap.Spans, obs.KindKernel, obs.KindCPU)
	return Result{{Title: title, Lines: []string{
		"busy per thread class:",
		strings.TrimSuffix(m.Phases.Summary(), "\n"),
		"",
		fmt.Sprintf("GPU-busy time with CPU work concurrently in flight: %v", overlap),
		"",
		strings.TrimSuffix(snap.Timeline(80), "\n"),
	}}}, nil
}

// overlappedTime returns the total time during which at least one span of
// kind a and one of kind b are simultaneously active. Each start/end
// edge is packed into one uint64 — time in the high bits, then a
// start/end bit (ends sort first, matching half-open intervals), then the
// kind bit — so the sweep sorts machine words instead of structs.
func overlappedTime(spans []obs.Span, a, b obs.Kind) sim.Time {
	const (
		kindBit  = 1 << 0 // kind a (vs kind b)
		startBit = 1 << 1 // interval start (vs end)
	)
	pack := func(at sim.Time, bits uint64) uint64 { return uint64(at)<<2 | bits }
	edges := make([]uint64, 0, 2*len(spans))
	for _, t := range spans {
		if t.Kind != a && t.Kind != b {
			continue
		}
		var cls uint64
		if t.Kind == a {
			cls = kindBit
		}
		edges = append(edges,
			pack(t.Start, startBit|cls),
			pack(t.End, cls))
	}
	slices.Sort(edges)
	var actA, actB int
	var last, acc sim.Time
	for _, e := range edges {
		at := sim.Time(e >> 2)
		if actA > 0 && actB > 0 {
			acc += at - last
		}
		last = at
		delta := -1
		if e&startBit != 0 {
			delta = 1
		}
		if e&kindBit != 0 {
			actA += delta
		} else {
			actB += delta
		}
	}
	return acc
}
