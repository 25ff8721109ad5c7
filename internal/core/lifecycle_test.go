package core

import (
	"encoding/json"
	"testing"

	"rocket/internal/apps/forensics"
	"rocket/internal/apps/phylo"
	"rocket/internal/fault"
	"rocket/internal/pairs"
	"rocket/internal/sim"
)

// The pooled-job lifecycle under the three regimes the pool meets: a
// hit-dominated run (jobs recycle at the compare rate), a 4/8-slot thrash
// (every job walks the load pipeline and waits on leases), and a crash
// schedule that catches a node's jobs token-suspended, mid-kernel and
// mid-load. The Summary goldens were captured from the closure-chain
// implementation this state machine replaced, on the same configurations:
// pooling may not move a single counter.

type lifecycleCase struct {
	name   string
	golden string
	cfg    func(t *testing.T) Config
	// crashes lists (node, time) of the schedule's crashes; before each
	// the test stops the clock and checks what the crash will catch.
	crashes []crashPoint
}

type crashPoint struct {
	node int
	at   sim.Time
}

var lifecycleCrashes = []crashPoint{{1, sim.Millis(61)}, {2, sim.Millis(140)}}

var lifecycleCases = []lifecycleCase{
	{
		name:   "hit-dominated",
		golden: `{"runtime_ns":2434251346,"pairs":4560,"loads":148,"r":1.5416666666666667,"io_bytes":582649495,"io_reads":148,"net_bytes":5562779200,"dev_cache_hit_rate":0.9719117225566065,"host_cache_hit_rate":0,"local_steals":0,"remote_steals":21,"failed_steals":82}`,
		cfg: func(t *testing.T) Config {
			return Config{App: forensics.New(forensics.Params{N: 96, Seed: 3}), Cluster: newCluster(t, 4), Seed: 3, DistCache: true}
		},
	},
	{
		name:   "thrash-4-8",
		golden: `{"runtime_ns":14798042409,"pairs":2016,"loads":715,"r":11.171875,"io_bytes":483330451,"io_reads":715,"net_bytes":24495073280,"dev_cache_hit_rate":0.5266248228386313,"host_cache_hit_rate":0.6223267750213858,"local_steals":0,"remote_steals":10,"failed_steals":66}`,
		cfg: func(t *testing.T) Config {
			return Config{App: phylo.New(phylo.Params{N: 64, Seed: 3}), Cluster: newCluster(t, 4), Seed: 3,
				DistCache: true, DeviceSlots: 4, HostSlots: 8, Hops: 3}
		},
	},
	{
		name:   "crash-schedule",
		golden: `{"runtime_ns":515169652,"pairs":1128,"loads":255,"r":5.3125,"io_bytes":26112000,"io_reads":255,"net_bytes":98729472,"dev_cache_hit_rate":0.7501057082452431,"host_cache_hit_rate":0.47884940778341795,"local_steals":0,"remote_steals":18,"failed_steals":28,"crashes":2,"restarts":2,"recovered_regions":30}`,
		cfg: func(t *testing.T) Config {
			s := new(fault.Schedule)
			for _, c := range lifecycleCrashes {
				s.Crash(c.node, c.at).Restart(c.node, c.at+sim.Millis(40))
			}
			return Config{App: defaultTestApp(48), Cluster: newCluster(t, 3), Seed: 1,
				DistCache: true, DeviceSlots: 8, HostSlots: 12, Faults: s}
		},
		crashes: lifecycleCrashes,
	},
}

func TestPooledJobLifecycle(t *testing.T) {
	for _, c := range lifecycleCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			n := cfg.App.NumItems()
			seen := make(map[pairIJ]int)
			cfg.OnResult = func(i, j int, _ interface{}) { seen[pairIJ{i, j}]++ }
			rt, err := launch(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var caught struct{ tokenWait, kernel, load bool }
			for _, cp := range c.crashes {
				rt.env.RunUntil(cp.at - 1)
				nd := rt.nodes[cp.node]
				for _, wk := range nd.workers {
					caught.tokenWait = caught.tokenWait || wk.pendingList != nil
				}
				// In-flight jobs are reachable only through what they hold: a
				// busy GPU stream is a job in a kernel, a busy I/O thread,
				// CPU pool or H2D engine a job loading an item (post-
				// processing, the CPU's other user, takes no time here).
				for _, d := range nd.devs {
					caught.kernel = caught.kernel || d.dev.Compute.InUse() > 0
					caught.load = caught.load || d.dev.H2D.InUse() > 0
				}
				caught.load = caught.load || nd.node.IO.InUse() > 0 || nd.node.CPU.InUse() > 0
			}
			if len(c.crashes) > 0 && !(caught.tokenWait && caught.kernel && caught.load) {
				t.Fatalf("the crashes must catch jobs token-suspended, mid-kernel and mid-load; caught %+v", caught)
			}
			rt.env.Run()
			m, err := rt.collect()
			if err != nil {
				t.Fatal(err)
			}

			// Exactly once, whatever the steal, eviction and crash history.
			if want := pairs.TotalPairs(n); int64(len(seen)) != want || m.Pairs != uint64(want) {
				t.Fatalf("%d distinct pairs emitted, %d counted, want %d", len(seen), m.Pairs, want)
			}
			for p, k := range seen {
				if k != 1 {
					t.Fatalf("pair (%d, %d) completed %d times", p.i, p.j, k)
				}
			}
			// Every lease was returned and every job is back in its pool,
			// which never outgrew the job-token limit.
			for _, nd := range rt.nodes {
				if nd.host != nil && nd.host.Pinned() != 0 {
					t.Errorf("%s: %d host slots still pinned", nd.node.Name(), nd.host.Pinned())
				}
				if len(nd.inflight) != 0 {
					t.Errorf("%s: %d pairs still in flight", nd.node.Name(), len(nd.inflight))
				}
				for _, d := range nd.devs {
					if d.cache.Pinned() != 0 {
						t.Errorf("%s: %d device slots still pinned", d.dev.ID, d.cache.Pinned())
					}
					if len(d.free) > d.jobTokens.Cap() {
						t.Errorf("%s: pool of %d jobs outgrew the limit of %d", d.dev.ID, len(d.free), d.jobTokens.Cap())
					}
					for _, jb := range d.free {
						if jb.stage != stFree || jb.epoch != nd.epoch {
							t.Errorf("%s: pooled job in stage %d of epoch %d (node epoch %d)", d.dev.ID, jb.stage, jb.epoch, nd.epoch)
						}
					}
				}
			}
			got, err := json.Marshal(m.Summary())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.golden {
				t.Errorf("summary moved:\n got %s\nwant %s", got, c.golden)
			}
		})
	}
}

// The always-on lifecycle check: a continuation that outlives its job, or
// a second recycle, panics instead of corrupting the pool.
func TestRecycledJobPanics(t *testing.T) {
	rt, err := launch(Config{App: defaultTestApp(8), Cluster: newCluster(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt.env.Run()
	if _, err := rt.collect(); err != nil {
		t.Fatal(err)
	}
	jb := rt.nodes[0].devs[0].free[0]
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("recycling a pooled job", jb.recycle)
	mustPanic("stepping a pooled job", jb.step)
	mustPanic("a resource grant to a pooled job", func() { jb.used(0) })
	mustPanic("a fetch reply to a pooled job", jb.lookup.Resume)
}
