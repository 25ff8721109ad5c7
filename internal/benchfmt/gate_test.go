package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(exps ...ExpResult) Report {
	return Report{Run: "t", Scale: 50, Seed: 1, Experiments: exps}
}

func exp(id string, sha string) ExpResult {
	return ExpResult{ID: id, OutputSHA256: sha}
}

// A report records no host time, and one written before the time columns
// went still decodes and gates on its counts: a baseline whose ns_per_op,
// events_per_sec and plan_ns_per_op are thirty times the candidate's
// passes with every row "ok", and no time reaches the text.
func TestGateIgnoresRecordedTimes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	old := `{"run":"old","scale":50,"seed":1,"experiments":[{"id":"fig6","paper":"Fig. 6",
"ns_per_op":3000000000,"allocs_per_op":10,"events":5,"events_per_sec":1.5,"output_sha256":"aa"}],
"storage_trajectory":[{"items":1415,"pairs":1000405,"bytes_per_pair":2.5,"plan_ns_per_op":15000000000,"plan_hash":"h1"}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	cand := report(ExpResult{ID: "fig6", AllocsPerOp: 10, Events: 5, OutputSHA256: "aa"})
	cand.StorageTrajectory = []StoragePoint{{Items: 1415, Pairs: 1000405, BytesPerPair: 2.5, PlanHash: "h1"}}
	g := Gate(base, cand)
	if g.Failed() || g.Rows[0].Verdict != "ok" || g.StorageRows[0].Verdict != "ok" {
		t.Fatalf("an old baseline did not gate cleanly: %+v", g)
	}
	for _, text := range []string{g.Text(), g.Markdown()} {
		if strings.Contains(text, "ms") || strings.Contains(text, "3000") {
			t.Errorf("a time reached the gate output:\n%s", text)
		}
	}
	buf, err := json.Marshal(cand)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"ns_per_op", "events_per_sec", "plan_ns_per_op"} {
		if strings.Contains(string(buf), col) {
			t.Errorf("a new report still writes %s: %s", col, buf)
		}
	}
}

func TestGatePassesIdenticalRuns(t *testing.T) {
	base := report(exp("fig6", "aa"), exp("fig8", "bb"))
	g := Gate(base, base)
	if g.Failed() {
		t.Fatalf("identical runs gated: %+v", g)
	}
	for _, r := range g.Rows {
		if r.Verdict != "ok" {
			t.Fatalf("row %+v, want ok", r)
		}
	}
}

// The determinism gate: an injected output_sha256 mismatch must fail the
// gate regardless of timing.
func TestGateFailsOnInjectedShaDrift(t *testing.T) {
	base := report(exp("fig6", "aa"), exp("fig8", "bb"))
	cand := report(exp("fig6", "aa"), exp("fig8", "CORRUPTED"))
	g := Gate(base, cand)
	if !g.Failed() {
		t.Fatal("sha drift did not fail the gate")
	}
	if len(g.Failures) != 1 || !strings.Contains(g.Failures[0], "fig8") ||
		!strings.Contains(g.Failures[0], "output_sha256") {
		t.Fatalf("failures: %v", g.Failures)
	}
	if !strings.Contains(g.Markdown(), "drift") {
		t.Fatalf("markdown does not mention drift:\n%s", g.Markdown())
	}
}

// The second deterministic column: allocs_per_op beyond 2% of the
// baseline fails like sha drift, whatever the timing says; a drop only
// shows in the row.
func TestGateAllocsGrowthIsFatal(t *testing.T) {
	withAllocs := func(n uint64) Report {
		e := exp("fig12", "aa")
		e.AllocsPerOp = n
		r := report(e)
		r.GoMaxProcs = 2
		return r
	}
	base := withAllocs(100000)
	g := Gate(base, withAllocs(102001))
	if !g.Failed() || g.Rows[0].Verdict != "allocs" {
		t.Fatalf("+2.001%% allocs did not fail the gate: %+v", g)
	}
	if !strings.Contains(g.Failures[0], "fig12") || !strings.Contains(g.Failures[0], "allocs_per_op") {
		t.Fatalf("failures: %v", g.Failures)
	}
	if ok := Gate(base, withAllocs(102000)); ok.Failed() {
		t.Fatalf("+2%% allocs is within the limit: %+v", ok)
	}
	drop := Gate(base, withAllocs(7000))
	if drop.Failed() || drop.Rows[0].Verdict != "ok" {
		t.Fatalf("an allocation drop was gated: %+v", drop)
	}
	if !strings.Contains(drop.Text(), "100000 ->      7000 allocs") {
		t.Fatalf("the drop is not reported:\n%s", drop.Text())
	}
	// Sha drift keeps priority over the allocation verdict.
	drifted := withAllocs(150000)
	drifted.Experiments[0].OutputSHA256 = "bb"
	if d := Gate(base, drifted); d.Rows[0].Verdict != "drift" {
		t.Fatalf("verdict %q, want drift", d.Rows[0].Verdict)
	}
	// The queue experiments' counts depend on the thread count, so a
	// report taken at another GOMAXPROCS is refused, not compared.
	other := withAllocs(100000)
	other.GoMaxProcs = 8
	w := Gate(base, other)
	if !w.Failed() || len(w.Rows) != 0 || !strings.Contains(w.Failures[0], "incomparable") {
		t.Fatalf("cross-GOMAXPROCS reports were compared: %+v", w)
	}
}

// The third deterministic column: heap_pushes is exact at a seed, so any
// growth over the baseline fails; a baseline written before the column
// existed reads zero and is not compared.
func TestGateHeapPushesGrowthIsFatal(t *testing.T) {
	withPushes := func(n uint64) Report {
		e := exp("fig12", "aa")
		e.Events, e.HeapPushes = 1000, n
		return report(e)
	}
	g := Gate(withPushes(250), withPushes(251))
	if !g.Failed() || g.Rows[0].Verdict != "heap" ||
		!strings.Contains(g.Failures[0], "fig12") || !strings.Contains(g.Failures[0], "heap_pushes") {
		t.Fatalf("one more heap push did not fail the gate: %+v", g)
	}
	for _, cand := range []uint64{250, 100} {
		if ok := Gate(withPushes(250), withPushes(cand)); ok.Failed() || ok.Rows[0].Verdict != "ok" {
			t.Fatalf("%d heap pushes against 250 were gated: %+v", cand, ok)
		}
	}
	if old := Gate(withPushes(0), withPushes(250)); old.Failed() || old.Rows[0].Verdict != "ok" {
		t.Fatalf("a baseline without the column was compared: %+v", old)
	}
}

func TestGateMissingAndNewExperiments(t *testing.T) {
	base := report(exp("fig6", "aa"), exp("fig8", "bb"))
	cand := report(exp("fig6", "aa"), exp("resilience", "cc"))
	g := Gate(base, cand)
	if !g.Failed() {
		t.Fatal("dropping a baseline experiment must fail")
	}
	verdicts := map[string]string{}
	for _, r := range g.Rows {
		verdicts[r.ID] = r.Verdict
	}
	if verdicts["fig8"] != "missing" || verdicts["resilience"] != "new" || verdicts["fig6"] != "ok" {
		t.Fatalf("verdicts: %v", verdicts)
	}
}

func TestGateRejectsIncomparableRuns(t *testing.T) {
	base := report(exp("fig6", "aa"))
	cand := base
	cand.Scale = 10
	if g := Gate(base, cand); !g.Failed() {
		t.Fatal("scale mismatch must fail")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	r := report(exp("fig6", "aa"))
	r.GoVersion = "go1.22"
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Experiments) != 1 || back.Experiments[0] != r.Experiments[0] || back.GoVersion != "go1.22" {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := Read(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("reading an absent file succeeded")
	}
}

func storagePoint(pairs int64, bpp float64, hash string) StoragePoint {
	return StoragePoint{
		Pairs: pairs, Items: int(pairs / 100), BytesPerPair: bpp,
		DiskBytes: int64(bpp * float64(pairs)), IndexResidentBytes: pairs,
		PlanHash: hash,
	}
}

func TestGateStorageIdenticalPasses(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	g := Gate(b, b)
	if g.Failed() {
		t.Fatalf("identical storage trajectories gated: %+v", g)
	}
	if len(g.StorageRows) != 1 || g.StorageRows[0].Verdict != "ok" {
		t.Fatalf("storage rows = %+v", g.StorageRows)
	}
	if g.StorageNote == "" || !strings.Contains(g.Markdown(), "storage trajectory") {
		t.Fatal("storage summary missing from markdown")
	}
}

func TestGateStorageBytesPerPairRegressionFails(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	c := report(exp("fig6", "aa"))
	// 2.9 is >10% over 2.5 but still under the absolute 8-byte floor:
	// the relative gate must catch it on its own.
	c.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.9, "h1")}
	g := Gate(b, c)
	if !g.Failed() {
		t.Fatalf("16%% bytes/pair regression passed: %+v", g)
	}
	if g.StorageRows[0].Verdict != "bloat" {
		t.Fatalf("verdict = %q, want bloat", g.StorageRows[0].Verdict)
	}
}

func TestGateStorageAbsoluteFloorFails(t *testing.T) {
	b := report(exp("fig6", "aa"))
	c := report(exp("fig6", "aa"))
	// No baseline point to compare against — the 8 bytes/pair capability
	// floor must still fail a 10^6-pair candidate on its own.
	c.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 9.5, "h1")}
	g := Gate(b, c)
	if !g.Failed() {
		t.Fatalf("9.5 bytes/pair at 1e6 pairs passed: %+v", g)
	}
	// Below the scale floor the same figure is fine (small stores have
	// amortization overhead).
	c.StorageTrajectory = []StoragePoint{storagePoint(100_000, 9.5, "h2")}
	if g := Gate(b, c); g.Failed() {
		t.Fatalf("9.5 bytes/pair at 1e5 pairs failed: %+v", g)
	}
}

func TestGateStoragePlanHashDriftFails(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	c := report(exp("fig6", "aa"))
	c.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h2")}
	g := Gate(b, c)
	if !g.Failed() || g.StorageRows[0].Verdict != "drift" {
		t.Fatalf("plan hash drift not fatal: %+v", g)
	}
}

// A plan that inflates a block twice fails like plan-hash drift, with or
// without a matching baseline point; up to one decode per block passes.
func TestGateStorageBlockRedecodeFails(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	c := report(exp("fig6", "aa"))
	ok := storagePoint(1_000_000, 2.5, "h1")
	ok.Blocks, ok.BlockDecodes = 245, 245
	bad := storagePoint(100_000, 2.2, "h2")
	bad.Blocks, bad.BlockDecodes = 25, 26
	c.StorageTrajectory = []StoragePoint{ok, bad}
	g := Gate(b, c)
	if !g.Failed() || len(g.Failures) != 1 || !strings.Contains(g.Failures[0], "decoded 26 blocks of 25") {
		t.Fatalf("block re-decode not gated: %+v", g)
	}
	if g.StorageRows[0].Verdict != "ok" || g.StorageRows[1].Verdict != "redecode" {
		t.Fatalf("storage rows = %+v", g.StorageRows)
	}
}

// Ingest bytes and objects per pair are held to the allocs_per_op budget
// at matched sizes; a baseline without the columns holds nothing.
func TestGateStorageIngestAllocation(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	c := report(exp("fig6", "aa"))
	within := storagePoint(1_000_000, 2.5, "h1")
	within.IngestBytesPerPair, within.IngestAllocsPerPair = 300, 0.005
	c.StorageTrajectory = []StoragePoint{within}
	if g := Gate(b, c); g.Failed() {
		t.Fatalf("baseline without ingest columns gated them: %+v", g)
	}
	b.StorageTrajectory = []StoragePoint{within}
	for _, grow := range []func(*StoragePoint){
		func(p *StoragePoint) { p.IngestBytesPerPair = 307 },
		func(p *StoragePoint) { p.IngestAllocsPerPair = 0.0052 },
	} {
		p := within
		grow(&p)
		c.StorageTrajectory = []StoragePoint{p}
		g := Gate(b, c)
		if !g.Failed() || g.StorageRows[0].Verdict != "ingest" || !strings.Contains(g.Failures[0], "ingest") {
			t.Fatalf("ingest growth beyond 2%% passed: %+v", g)
		}
	}
	p := within
	p.IngestBytesPerPair, p.IngestAllocsPerPair = 305, 0.0051
	c.StorageTrajectory = []StoragePoint{p}
	if g := Gate(b, c); g.Failed() {
		t.Fatalf("ingest growth within 2%% failed: %+v", g)
	}
}

func TestGateStorageTrajectoryMustNotVanish(t *testing.T) {
	b := report(exp("fig6", "aa"))
	b.StorageTrajectory = []StoragePoint{storagePoint(1_000_000, 2.5, "h1")}
	c := report(exp("fig6", "aa"))
	g := Gate(b, c)
	if !g.Failed() {
		t.Fatalf("vanished storage trajectory passed: %+v", g)
	}
}
