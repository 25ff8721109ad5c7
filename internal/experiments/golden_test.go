package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"rocket/internal/pairstore"
	"rocket/internal/sim"
	"rocket/internal/testutil"
)

// goldenOpts is the configuration every experiment row below was captured
// at, in one process at GOMAXPROCS 2.
var goldenOpts = Options{Scale: 50, Seed: 1}

// maxAllocGrowth is the tolerated relative growth of an allocation count
// over its golden row. Counts repeat to within 0.3% run over run (map
// growth and the runtime's own bookkeeping move them by a few objects), so
// 2% is far outside noise and any excess is a real change in the code.
// The race detector's shadow allocations move them, so under -race only
// the exact columns are checked.
const maxAllocGrowth = 0.02

// allocRuns is how many times a golden runs what it counts the
// allocations of, keeping the cheapest run (see testutil.Allocs); under
// -race, where allocations go unchecked, once.
func allocRuns() int {
	if raceEnabled {
		return 1
	}
	return 3
}

// experimentRow pins one experiment at goldenOpts: the sha256 of its
// rendered output, the simulation events it dispatched and how many of
// them were ordered through an engine heap rather than a now-lane (both
// exact at a seed), and the heap objects it allocated (a ceiling).
type experimentRow struct {
	id         string
	sha        string
	events     uint64
	heapPushes uint64
	mallocs    uint64
}

var experimentGolden = []experimentRow{
	{"table1", "0427ed04446a649164650d1192a0a4d6e44ba21858efaa2297f23a7622db9926", 0, 0, 325},
	{"fig6", "986ad9f4af925fcba22136343a726e462e3daa80a6dba7dac7c0c9f9d4c12fc5", 10040, 4319, 858},
	{"fig7", "c016b3254a3fba20d19358e259ba421db5ecccdc0ff774d86209276be61907a1", 0, 0, 159},
	{"fig8", "b221543d45452d63a9d73282c3ed0c20bf7ed966e4829c9be4714e99b4eabb3e", 214508, 86925, 2326},
	{"fig9", "c6d04d2040a9239e3b62076fc804a70c713ab4c1d7db88c58090b734fffc6ff2", 1462012, 633254, 11660},
	{"fig10", "9ac7ac0ff4c7154779ef67b1566a2f92e4c1977c37f2558eb2806ea096ddc1fa", 92544, 26814, 1397},
	{"fig11", "f720bf06d916390fab678949516af61d5581891513fe49da6daae629934b18a0", 458713, 214712, 21377},
	{"fig12", "0c8929070d42b9db61fc1e3ed8b80ce5ddf8abf5a01a04abce75c95aaaa1d960", 2788550, 1241267, 82064},
	{"fig13", "0731d3f331de69e2705ea01c48014bbaeeb5fedf1da1721f73bec6e099782bec", 1293448, 563686, 19219},
	{"fig14", "4976076f6f18524b01761e21f024145d8665da46dd4efae341e5b0db724af2de", 329046, 156997, 6396},
	{"fig15", "6aa2284b5fb7555ee147a2f54ae2e93b9d365ad747721d9812839960c8488242", 691897, 300283, 24892},
	{"ablation-leaf", "04fe705521e593423c204410f5457f4415f4d52598554fb8a0781bbf1455981f", 223585, 80294, 7259},
	{"ablation-joblimit", "2afe799d7b81fcdfcf49240f6c04316f2e02abd7b27ba18910dff018c5b3607e", 60276, 31461, 976},
	{"ablation-steal", "98ed498a6065cd4e116f5bc8ab0d063398f75f8f64ffbe9028681f2a526dd542", 121732, 48566, 3639},
	{"ablation-hops", "23be4be224853a723dfe4ec04055543ccb473ae2591b13f1318d8df4464f7751", 147963, 52979, 8583},
	{"ablation-eviction", "1742a719ecd0f3f03b63e98481a281d2c680e4bea323c9dedab1210cb2433a8a", 74249, 27688, 753},
	{"ablation-prewarm", "103d15bb4b5324bf8ad3bebfc041e891951d180ae1545e622c4adff5b7e3d2bd", 63475, 26880, 1362},
	{"ablation-backoff", "114e1509ed9ff8c4d051ace0f40ce5bb9caa664877890fd3459a77480b220415", 1754659, 868152, 32852},
	{"queue-scaling", "384dbec61506b83bd2bba1c54fa82bf28ddbb4ea5f63c0ae1e33ef8bc068c7b8", 545577, 295014, 55556},
	{"resilience", "94460d06a35c56cc4bfe04d40bb32c99548e43a956fdfc077b4189f5601b9354", 361440, 128013, 14133},
	{"incremental", "fbfecb3973658703175c8d933250ac58fb3b2a4489bed8d0e4f8635d3e0540c0", 415521, 148295, 9500},
	{"chaos", "ba2869f34cc6155162ce8cea47ba16c9c6f02bc1f43f33120bca48c6057582ca", 58398, 15310, 219},
	{"elasticity", "645d288e804453abcefe71523315974cede7eff823b7bc8e7258c245dea66055", 85823, 26717, 18672},
}

// storageRow pins one MeasureStorage point at seed 1: the persisted size,
// the planned-residency hash and the block count (exact), and the heap
// bytes and objects ingestion allocated per pair (ceilings).
type storageRow struct {
	pairs         int64
	diskBytes     int64
	planHash      string
	blocks        int
	ingestBytes   float64
	ingestObjects float64
}

var storageGolden = []storageRow{
	{100_000, 220761, "e87ed83e26ffe24a8046eb0a1a5234cc44e6c8c49111fff2d187695599131a2c", 25, 303.47, 0.00096876},
	{1_000_000, 2558960, "065ef74796e595e8bfabbd990f4030297190a57944c7bf886358cb27b66dff8f", 245, 200.53, 0.0061475},
}

// TestExperimentsGolden pins every experiment's rendered bytes and counts
// at goldenOpts. The table covers exactly the IDs in All(): a new
// experiment needs a row, a deleted one takes its row with it. The queue
// experiments run their inner simulations on one worker per OS thread,
// which moves their allocations, so the test runs at the GOMAXPROCS the
// rows were captured at. Never edit a row to make a change pass unless
// the change means to alter that experiment's output or counts.
func TestExperimentsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	want := make(map[string]experimentRow, len(experimentGolden))
	for _, r := range experimentGolden {
		want[r.id] = r
	}
	for _, e := range All() {
		w, ok := want[e.ID]
		if !ok {
			t.Errorf("%s: no golden row", e.ID)
			continue
		}
		delete(want, e.ID)
		// Every run is the same simulation; the row is read off the last.
		got := experimentRow{id: e.ID}
		var out string
		var err error
		got.mallocs, _ = testutil.Allocs(func() {
			events0, heap0 := sim.GlobalEvents(), sim.GlobalHeapPushes()
			out, err = e.Run(goldenOpts)
			got.events, got.heapPushes = sim.GlobalEvents()-events0, sim.GlobalHeapPushes()-heap0
		}, allocRuns())
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		got.sha = fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
		if got.sha != w.sha || got.events != w.events || got.heapPushes != w.heapPushes {
			t.Errorf("%s: sha %.12s… events %d heap pushes %d, golden %.12s… %d %d",
				e.ID, got.sha, got.events, got.heapPushes, w.sha, w.events, w.heapPushes)
		}
		if !raceEnabled && float64(got.mallocs) > float64(w.mallocs)*(1+maxAllocGrowth) {
			t.Errorf("%s: %d allocations, %.1f%% over the golden %d (limit %.0f%%)",
				e.ID, got.mallocs, 100*(float64(got.mallocs)/float64(w.mallocs)-1), w.mallocs, 100*maxAllocGrowth)
		}
	}
	for id := range want {
		t.Errorf("%s: golden row for an experiment All() no longer lists", id)
	}
}

// TestStorageGolden pins the pairstore lifecycle MeasureStorage drives
// (ingest → seal → compact → save → load → plan a delta) at 10^5 and 10^6
// pairs. Every byte count, hash and block count repeats exactly; the plan
// may inflate each block at most once. The ingestion (every Put and the
// final Seal into a fresh store) is then counted on its own.
func TestStorageGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range storageGolden {
		got, err := MeasureStorage(w.pairs, 1)
		if err != nil {
			t.Errorf("%d pairs: %v", w.pairs, err)
			continue
		}
		if got.DiskBytes != w.diskBytes || got.PlanHash != w.planHash || got.Blocks != w.blocks {
			t.Errorf("%d pairs: disk %d B, plan %.12s…, %d blocks; golden %d B, %.12s…, %d blocks",
				w.pairs, got.DiskBytes, got.PlanHash, got.Blocks, w.diskBytes, w.planHash, w.blocks)
		}
		if got.BlockDecodes > uint64(got.Blocks) {
			t.Errorf("%d pairs: the plan decoded %d blocks of %d: a block was inflated twice",
				w.pairs, got.BlockDecodes, got.Blocks)
		}
		if raceEnabled {
			continue
		}
		digest := pairstore.DigestFunc(storageRef, "storage", 1)
		stores := make([]*pairstore.Store, allocRuns())
		for i := range stores {
			stores[i] = newStorageStore()
		}
		run := 0
		objs, bytes := testutil.Allocs(func() {
			s := stores[run]
			stores[run], run = nil, run+1
			storageIngest(s, got.Items, digest)
		}, len(stores))
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"bytes", float64(bytes) / float64(got.Pairs), w.ingestBytes},
			{"objects", float64(objs) / float64(got.Pairs), w.ingestObjects},
		} {
			if m.got > m.want*(1+maxAllocGrowth) {
				t.Errorf("%d pairs: ingest %s per pair %.4g, %.1f%% over the golden %.4g (limit %.0f%%)",
					w.pairs, m.name, m.got, 100*(m.got/m.want-1), m.want, 100*maxAllocGrowth)
			}
		}
	}
}
