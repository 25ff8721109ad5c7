package obs

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rocket/internal/sim"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Lanes() != 0 {
		t.Fatal("nil recorder reports lanes")
	}
	r.Record(0, Span{Kind: KindMark})
	r.RecordInstant(3, KindSteal, "node0", "probe", 5, 1)
	snap := r.Snapshot()
	if len(snap.Spans) != 0 || snap.Recorded != 0 || snap.Dropped != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(1, 4)
	for i := 0; i < 10; i++ {
		r.Record(0, Span{Start: sim.Time(i), End: sim.Time(i), Kind: KindMark, Track: "t"})
	}
	snap := r.Snapshot()
	if snap.Recorded != 10 || snap.Dropped != 6 {
		t.Fatalf("recorded=%d dropped=%d, want 10/6", snap.Recorded, snap.Dropped)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(snap.Spans))
	}
	// The most recent four (starts 6..9) survive.
	for i, s := range snap.Spans {
		if want := sim.Time(6 + i); s.Start != want {
			t.Fatalf("span %d start = %v, want %v", i, s.Start, want)
		}
	}
}

// TestLazyGrowthLosesNothing covers the growth-phase boundary: the ring
// allocates lazily toward its capacity, and the moment the backing slice
// fills (write position wrapped to 0) the next record must grow and keep
// every span, not overwrite the oldest.
func TestLazyGrowthLosesNothing(t *testing.T) {
	const total = 1000 // crosses the 64/128/256/512 growth boundaries
	r := New(1, 1<<12)
	for i := 0; i < total; i++ {
		r.Record(0, Span{Start: sim.Time(i), End: sim.Time(i), Kind: KindMark, Track: "t"})
	}
	snap := r.Snapshot()
	if snap.Recorded != total || snap.Dropped != 0 {
		t.Fatalf("recorded=%d dropped=%d, want %d/0", snap.Recorded, snap.Dropped, total)
	}
	if len(snap.Spans) != total {
		t.Fatalf("retained %d spans, want %d", len(snap.Spans), total)
	}
	for i, s := range snap.Spans {
		if s.Start != sim.Time(i) {
			t.Fatalf("span %d start = %v, want %v", i, s.Start, sim.Time(i))
		}
	}
}

func TestSnapshotCanonicalOrderAcrossLaneLayouts(t *testing.T) {
	// The same multiset of spans recorded under different lane counts and
	// interleavings must snapshot identically — the width-invariance
	// property the exporters rely on.
	spans := make([]Span, 0, 200)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		start := sim.Time(rng.Intn(50))
		spans = append(spans, Span{
			Start: start,
			End:   start + sim.Time(rng.Intn(20)),
			Kind:  Kind(rng.Intn(int(numKinds))),
			Track: []string{"node0", "node1", "shard0"}[rng.Intn(3)],
			Name:  []string{"a", "b", ""}[rng.Intn(3)],
			Arg:   int64(rng.Intn(3)),
		})
	}
	var base Snapshot
	for trial, lanes := range []int{1, 2, 4, 8} {
		r := New(lanes, 0)
		order := rng.Perm(len(spans))
		for _, i := range order {
			r.Record(i%lanes, spans[i])
		}
		snap := r.Snapshot()
		if trial == 0 {
			base = snap
			continue
		}
		if len(snap.Spans) != len(base.Spans) {
			t.Fatalf("lanes=%d: %d spans, want %d", lanes, len(snap.Spans), len(base.Spans))
		}
		for i := range snap.Spans {
			if snap.Spans[i] != base.Spans[i] {
				t.Fatalf("lanes=%d: span %d differs: %+v vs %+v", lanes, i, snap.Spans[i], base.Spans[i])
			}
		}
	}
}

func TestRecordPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for End < Start")
		}
	}()
	New(1, 4).Record(0, Span{Start: 10, End: 5})
}

func TestKindRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
		got, ok := ParseKind(s)
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", s, got, ok, k)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Fatal("ParseKind accepted garbage")
	}
	if NumKinds() != int(numKinds) {
		t.Fatalf("NumKinds() = %d, want %d", NumKinds(), numKinds)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Observe(v)
	}
	if h.Count() != 32 || h.Sum() != 496 || h.Max() != 31 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Values below 32 are exact: the quantile is the sample itself.
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %d", got)
	}
	if got := h.Quantile(0.5); got != 16 {
		t.Fatalf("p50 = %d, want 16", got)
	}
	if got := h.Quantile(1); got != 31 {
		t.Fatalf("p100 = %d, want 31", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1_000_000))
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("p%v = %d below exact %d", q*100, got, exact)
		}
		// Log-bucketed upper bound: within one sub-bucket (~1/32 relative).
		if float64(got) > float64(exact)*(1+2.0/histSub)+1 {
			t.Fatalf("p%v = %d too far above exact %d", q*100, got, exact)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("p100 = %d, want max %d", h.Quantile(1), h.Max())
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		i := histBucket(v)
		if histUpper(i) < v {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, histUpper(i), i)
		}
		if i > 0 && histUpper(i-1) >= v {
			t.Fatalf("value %d fits previous bucket (upper %d)", v, histUpper(i-1))
		}
	}
}

func TestHistogramMergeClone(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	c := a.Clone()
	c.Merge(&b)
	if c.Count() != 200 || c.Sum() != a.Sum()+b.Sum() || c.Max() != b.Max() {
		t.Fatalf("merge: count=%d sum=%d max=%d", c.Count(), c.Sum(), c.Max())
	}
	if a.Count() != 100 {
		t.Fatal("merge mutated the clone source")
	}
	c.Merge(nil) // no-op
	var cum uint64
	var lastLe int64 = -1
	for _, bk := range c.Buckets() {
		if bk.Le <= lastLe {
			t.Fatalf("buckets not ascending: %d after %d", bk.Le, lastLe)
		}
		if bk.Count < cum {
			t.Fatalf("cumulative count decreased: %d after %d", bk.Count, cum)
		}
		cum, lastLe = bk.Count, bk.Le
	}
	if cum != c.Count() {
		t.Fatalf("last cumulative %d != count %d", cum, c.Count())
	}
}

func snapFixture() Snapshot {
	r := New(2, 0)
	r.Record(0, Span{Start: 0, End: 2500, Kind: KindKernel, Track: "node0/gpu0", Name: "compare", Arg: 3, Arg2: 5})
	r.Record(1, Span{Start: 1000, End: 1000, Kind: KindSeal, Track: "store", Name: "seal", Arg: 64})
	r.Record(0, Span{Start: 500, End: 4000, Kind: KindJobRun, Track: "sched", Name: "job1", Tenant: "acme"})
	r.Record(1, Span{Start: 0, End: 10000, Kind: KindWindow, Track: "shard1", Name: "window"})
	return r.Snapshot()
}

func TestWriteTraceBytes(t *testing.T) {
	var b strings.Builder
	if err := WriteTrace(&b, snapFixture(), ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"node0/gpu0"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"sched"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"store"}},
{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":2.500,"name":"compare","cat":"kernel","args":{"arg":3,"arg2":5}},
{"ph":"X","pid":1,"tid":2,"ts":0.500,"dur":3.500,"name":"job1","cat":"job-run","args":{"tenant":"acme"}},
{"ph":"X","pid":1,"tid":3,"ts":1.000,"dur":0.000,"name":"seal","cat":"seal","args":{"arg":64}}
],"otherData":{"spans":"3","dropped":"0"}}
`
	if b.String() != want {
		t.Fatalf("trace bytes:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteTraceIncludeEngine(t *testing.T) {
	var off, on strings.Builder
	if err := WriteTrace(&off, snapFixture(), ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&on, snapFixture(), ExportOptions{IncludeEngine: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), `"cat":"window"`) {
		t.Fatal("default export contains engine spans")
	}
	if !strings.Contains(on.String(), `"cat":"window"`) {
		t.Fatal("IncludeEngine export missing engine spans")
	}
}

func TestWriteTableAndTop(t *testing.T) {
	snap := snapFixture()
	var tbl strings.Builder
	if err := snap.WriteTable(&tbl, 0, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"job1(acme)", "compare", "seal", "3 shown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "window") {
		t.Fatalf("table shows engine spans by default:\n%s", out)
	}

	top := snap.Top("kind")
	if len(top) != 3 || top[0].Key != "job-run" || top[0].Busy != 3500 {
		t.Fatalf("top by kind = %+v", top)
	}
	byTrack := snap.Top("track")
	if byTrack[0].Key != "sched" {
		t.Fatalf("top by track = %+v", byTrack)
	}
	var topOut strings.Builder
	if err := snap.WriteTop(&topOut, "kind", 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(topOut.String(), "job-run") {
		t.Fatalf("top table:\n%s", topOut.String())
	}
}

// TestWriteTimeline: spans group under their track in name order, each
// track in canonical order, and a non-zero Arg2 prints as a pair.
func TestWriteTimeline(t *testing.T) {
	r := New(1, 0)
	r.Record(0, Span{Start: 10, End: 20, Kind: KindKernel, Track: "n0/gpu0", Name: "compare", Arg: 1, Arg2: 3})
	r.Record(0, Span{Start: 0, End: 5, Kind: KindCPU, Track: "n0/cpu", Name: "parse", Arg: 7})
	r.Record(0, Span{Start: 0, End: 3, Kind: KindKernel, Track: "n0/gpu0", Name: "preprocess", Arg: 7})
	var b strings.Builder
	if err := r.Snapshot().WriteTimeline(&b, 0); err != nil {
		t.Fatal(err)
	}
	want := "== n0/cpu ==\n" +
		"           0ns .. 5ns          parse       item 7\n" +
		"== n0/gpu0 ==\n" +
		"           0ns .. 3ns          preprocess  item 7\n" +
		"          10ns .. 20ns         compare     pair (1, 2)\n"
	if b.String() != want {
		t.Errorf("timeline:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteTimelineLimit: the row limit counts rows across tracks.
func TestWriteTimelineLimit(t *testing.T) {
	r := New(1, 0)
	for i := 0; i < 10; i++ {
		r.Record(0, Span{Start: sim.Time(i), End: sim.Time(i + 1), Kind: KindCPU, Track: "r" + strconv.Itoa(i%2), Name: "parse", Arg: int64(i)})
	}
	var b strings.Builder
	if err := r.Snapshot().WriteTimeline(&b, 6); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 8 { // 2 headers + 5 rows of r0 + 1 of r1
		t.Errorf("got %d lines, want 8:\n%s", lines, b.String())
	}
}
