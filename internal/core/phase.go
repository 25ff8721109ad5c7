package core

import (
	"fmt"
	"strings"

	"rocket/internal/obs"
	"rocket/internal/sim"
)

// Phase is one kind of task interval the runtime records: a pipeline
// stage (Fig. 2) or a runtime-internal activity.
type Phase uint8

// Phases, one per pipeline stage plus runtime-internal activities.
const (
	PhaseIO         Phase = iota // read input file from (remote) storage
	PhaseParse                   // parse file contents on the CPU
	PhaseH2D                     // host-to-device transfer
	PhasePreprocess              // pre-processing kernel on the GPU
	PhaseCompare                 // comparison kernel on the GPU
	PhaseD2H                     // device-to-host transfer
	PhasePost                    // post-processing on the CPU
	PhaseFetch                   // distributed-cache fetch from a peer node
	PhaseSteal                   // work-stealing protocol activity
	PhaseStoreRead               // pairstore read: resident results served
	PhaseStoreWrite              // pairstore write: segment-log append flush
	numPhases
)

// Class groups phases the way the paper groups threads in Fig. 8: GPU,
// CPU, CPU→GPU, GPU→CPU, and IO (plus the network).
type Class uint8

// Thread classes.
const (
	ClassGPU Class = iota
	ClassCPU
	ClassH2D
	ClassD2H
	ClassIO
	ClassNet
	numClasses
)

var classNames = [numClasses]string{"GPU", "CPU", "CPU>GPU", "GPU>CPU", "IO", "NET"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// phases gives each phase its wire name (the Perfetto span name), the
// thread class it runs on, and the span kind it is recorded under.
var phases = [numPhases]struct {
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

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p < numPhases {
		return phases[p].name
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseTable holds the busy time and task count of every phase of one
// run. It is always kept: Fig. 8/10 and the exactly-once checks read it.
type PhaseTable struct {
	busy  [numPhases]sim.Time
	count [numPhases]uint64
}

// Busy returns the total busy time of a thread class, summed over its
// phases.
func (t *PhaseTable) Busy(c Class) sim.Time {
	var total sim.Time
	for p := range t.busy {
		if phases[p].class == c {
			total += t.busy[p]
		}
	}
	return total
}

// BusyPhase returns the busy time of one phase, e.g. the GPU time spent
// in comparison kernels only.
func (t *PhaseTable) BusyPhase(p Phase) sim.Time { return t.busy[p] }

// Count returns the number of tasks recorded for a phase.
func (t *PhaseTable) Count(p Phase) uint64 { return t.count[p] }

// Summary renders the aggregate busy-time table, one row per class.
func (t *PhaseTable) Summary() string {
	var b strings.Builder
	for c := Class(0); c < numClasses; c++ {
		if total := t.Busy(c); total != 0 {
			fmt.Fprintf(&b, "%-8s %v\n", c, total)
		}
	}
	return b.String()
}

// record logs the task interval [start, now] of phase p on resource: it
// bumps the phase table and, when a flight recorder is attached, writes
// the one span that is the interval's only retained form. item2 is -1
// when the task has no second item (Arg2 carries item2+1, so 0 is
// "none").
func (rt *runtime) record(p Phase, resource string, item, item2 int, start sim.Time) {
	end := rt.env.Now()
	if end < start {
		panic(fmt.Sprintf("core: %v on %s ends at %v before it starts at %v", p, resource, end, start))
	}
	rt.phases.busy[p] += end - start
	rt.phases.count[p]++
	if rt.cfg.Spans != nil {
		rt.cfg.Spans.Record(0, obs.Span{
			Start: start, End: end,
			Kind: phases[p].kind, Track: resource, Name: phases[p].name,
			Arg: int64(item), Arg2: int64(item2) + 1,
		})
	}
}
