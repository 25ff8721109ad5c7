package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer's public function
// (or a wait the benchmark imposes on itself). Times are nanoseconds
// since the tracer started; Parent is an index into the span list, -1
// for a root; spans of one iteration or job share Op.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced run: begin and end do nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at now and returns its id for end and for children.
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(time.Now(), name, layer, parent, op)
}

// beginAt opens a span that started at a known earlier instant (an
// open-loop job's due time).
func (t *tracer) beginAt(at time.Time, name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: at.Sub(t.t0).Nanoseconds(), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.endAt(id, time.Now())
}

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at.Sub(t.t0).Nanoseconds()
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children may overlap each other and are clipped to the
// parent). Spans never ended count as empty.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

// traceDoc is the file a traced workload leaves in bench/out.
type traceDoc struct {
	Workload    string             `json:"workload"`
	Provenance  provenance         `json:"provenance"`
	SelfMsLayer map[string]float64 `json:"self_ms_by_layer"`
	CPUByLayer  map[string]float64 `json:"cpu_frac_by_layer,omitempty"`
	Spans       []span             `json:"spans"`
}

func (t *tracer) write(dir string, doc traceDoc) (string, error) {
	t.mu.Lock()
	doc.Spans = t.spans
	t.mu.Unlock()
	doc.SelfMsLayer = selfByLayer(doc.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, doc.Workload+".trace.json")
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
