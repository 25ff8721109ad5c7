// Package obs is the deterministic observability layer: virtual-time
// spans recorded into a fixed-size per-lane flight recorder, log-bucketed
// histograms with deterministic quantile extraction, and a Perfetto/Chrome
// trace-event exporter.
//
// Everything in this package is stamped in virtual time and ordered by a
// canonical value-based key, never by wall clock or goroutine
// interleaving, so recorded timelines are byte-identical across reruns
// and across lane layouts — the same determinism contract the rest of the
// repo property-tests. A nil *Recorder is the disabled layer:
// every method no-ops, and the packages that thread a recorder through
// (core, sched, fleet, sim) guard each recording site with a single nil
// check, which is the zero-overhead-when-off budget.
package obs

import (
	"cmp"
	"fmt"
	"sync"

	"rocket/internal/sim"
)

// Kind classifies a span by the mechanism it observes.
type Kind uint8

// Span kinds.
const (
	// KindJobWait is a job's admission→placement interval (queueing).
	KindJobWait Kind = iota
	// KindJobRun is a job's placement→completion interval (service).
	KindJobRun
	// KindSteal is one work-stealing protocol activity.
	KindSteal
	// KindSeal is a pairstore mutable-log seal (instant).
	KindSeal
	// KindCompact is a pairstore tier merge or full compaction (instant).
	KindCompact
	// KindKernel is a GPU kernel phase (preprocess, compare).
	KindKernel
	// KindCopy is a GPU copy phase (h2d, d2h).
	KindCopy
	// KindCPU is a host compute phase (parse, postprocess).
	KindCPU
	// KindIO is a storage-server read.
	KindIO
	// KindFetch is a distributed-cache fetch.
	KindFetch
	// KindStore is charged pairstore I/O inside a run (read or write).
	KindStore
	// KindMark is a generic instant marker (join, preempt, drain, ...).
	KindMark
	numKinds
)

// String returns the kind's stable wire name (the Perfetto category).
func (k Kind) String() string {
	switch k {
	case KindJobWait:
		return "job-wait"
	case KindJobRun:
		return "job-run"
	case KindSteal:
		return "steal"
	case KindSeal:
		return "seal"
	case KindCompact:
		return "compact"
	case KindKernel:
		return "kernel"
	case KindCopy:
		return "copy"
	case KindCPU:
		return "cpu"
	case KindIO:
		return "io"
	case KindFetch:
		return "fetch"
	case KindStore:
		return "store"
	case KindMark:
		return "mark"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Span is one recorded interval of virtual time on a track. Instant
// events are spans with End == Start.
type Span struct {
	// Start and End bound the interval in virtual time.
	Start, End sim.Time
	// Kind classifies the mechanism (the Perfetto category).
	Kind Kind
	// Track is the lane the span renders on: a resource ("node3/gpu0")
	// or a subsystem ("sched", "store").
	Track string
	// Name labels the span ("compare", "job0", "seal").
	Name string
	// Tenant is the owning tenant, when the span has one.
	Tenant string
	// Arg and Arg2 are kind-specific payloads (items, pairs, rows, ...).
	Arg, Arg2 int64
}

// Compare orders spans by the canonical export key: virtual start time,
// then end time, then the value fields. The key deliberately excludes
// the recording lane and sequence number — those depend on which lane a
// site writes to, while the value tuple is a pure function of workload
// behavior — so a canonically sorted span list is byte-identical across
// lane layouts.
// Fully equal spans are interchangeable, which keeps the sort
// deterministic even though it is not stable.
func (s Span) Compare(o Span) int {
	if c := cmp.Compare(s.Start, o.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(s.End, o.End); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Track, o.Track); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Kind, o.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Name, o.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Tenant, o.Tenant); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Arg, o.Arg); c != 0 {
		return c
	}
	return cmp.Compare(s.Arg2, o.Arg2)
}

// DefaultCapacity is the per-lane flight-recorder capacity when New is
// given 0: large enough that the committed scenario corpus never wraps,
// small enough that an always-on daemon stays bounded (64Ki spans/lane).
const DefaultCapacity = 1 << 16

// lane is one fixed-capacity ring. Each recording site writes to one
// lane; the mutex is
// effectively uncontended because a lane has one writer, and exists so
// snapshots can be taken concurrently (rocketd's /v1/trace).
//
// The backing slice grows geometrically toward cap instead of being
// allocated up front: a 64Ki-span lane is 5 MB, and zeroing that per
// recorder would dominate short traced runs that record a few hundred
// spans. Until the slice reaches cap the ring has never wrapped, so
// growth is a plain copy.
type lane struct {
	mu   sync.Mutex
	buf  []Span
	cap  int
	next int
	n    int
	seq  uint64
}

// Recorder is the flight recorder: per-lane fixed-size rings of spans.
// When a lane is full the oldest span is overwritten — the recorder
// keeps the most recent history, like an aircraft flight recorder.
//
// A nil *Recorder is valid and disabled: Record is a no-op and Snapshot
// returns an empty snapshot. That is the off state.
type Recorder struct {
	lanes []lane
}

// New returns a recorder with the given number of lanes (minimum 1) and
// per-lane capacity (0 = DefaultCapacity).
func New(lanes, capacity int) *Recorder {
	if lanes < 1 {
		lanes = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{lanes: make([]lane, lanes)}
	for i := range r.lanes {
		r.lanes[i].cap = capacity
	}
	return r
}

// Record appends one span to the given lane's ring (modulo the lane
// count), overwriting the oldest span when full. Safe for concurrent use
// across lanes; a single lane must have one writer at a time.
func (r *Recorder) Record(laneIdx int, s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		panic(fmt.Sprintf("obs: span ends before it starts: %+v", s))
	}
	l := &r.lanes[laneIdx%len(r.lanes)]
	l.mu.Lock()
	if l.n == len(l.buf) && len(l.buf) < l.cap {
		// Still in the growth phase (never wrapped: next == n), so the
		// retained spans are buf[:n] in order and copy preserves them.
		grown := min(max(2*len(l.buf), 64), l.cap)
		next := make([]Span, grown)
		copy(next, l.buf)
		l.buf = next
		// next had wrapped to 0 when the old slice filled; the retained
		// spans occupy buf[:n], so writing resumes at n.
		l.next = l.n
	}
	l.buf[l.next] = s
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
	}
	if l.n < len(l.buf) {
		l.n++
	}
	l.seq++
	l.mu.Unlock()
}

// RecordInstant records a zero-duration span at t.
func (r *Recorder) RecordInstant(laneIdx int, kind Kind, track, name string, t sim.Time, arg int64) {
	r.Record(laneIdx, Span{Start: t, End: t, Kind: kind, Track: track, Name: name, Arg: arg})
}

// Snapshot is a point-in-time copy of the recorder's contents in
// canonical order.
type Snapshot struct {
	// Spans holds the retained spans sorted by Span.Compare.
	Spans []Span
	// Recorded counts every span ever recorded; Dropped counts the ones
	// the rings overwrote. Exports are layout-invariant only while
	// Dropped == 0 (drop order depends on the lane layout); exporters
	// surface the counter so pipelines can detect truncated recordings.
	Recorded, Dropped uint64
}

// Snapshot copies and canonically sorts the retained spans. Safe to call
// while recording continues (each lane is locked briefly in turn, so the
// snapshot is per-lane consistent).
func (r *Recorder) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for i := range r.lanes {
		l := &r.lanes[i]
		l.mu.Lock()
		snap.Recorded += l.seq
		snap.Dropped += l.seq - uint64(l.n)
		if l.n == len(l.buf) {
			// Full ring: next is both write position and oldest entry.
			snap.Spans = append(snap.Spans, l.buf[l.next:]...)
			snap.Spans = append(snap.Spans, l.buf[:l.next]...)
		} else {
			snap.Spans = append(snap.Spans, l.buf[:l.n]...)
		}
		l.mu.Unlock()
	}
	sortSpans(snap.Spans)
	return snap
}
