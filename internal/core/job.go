package core

import (
	"fmt"

	"rocket/internal/cache"
	"rocket/internal/dht"
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// A comparison job is a pure delay state machine: every step either holds
// a resource for a span of virtual time or waits on a cache/network
// condition, then continues. Jobs therefore run as callback chains on the
// scheduler — no goroutine, no channel handoff per step — which is what
// lets a run dispatch millions of pair jobs cheaply. The worker and server
// control loops are callback chains too (runtime.go).
//
// Chain steps run in scheduler context and must never block; all waiting
// is via the callback-completion primitives (sim.Resource.UseFunc,
// cache.AcquireFunc, dht.Engine.Fetch, cluster ReadFunc/SendAsync).
//
// A job is a pooled object: the chain is strictly sequential, so where it
// is in the pipeline is one stage field and its continuations are three
// method values bound once; a distributed-cache lookup in flight is the
// job's own lookup field, which the node's engine resolves and resumes
// through step. It returns to its device's pool only from finish or fail
// (ownership rules: DESIGN.md §3).
//
// Fault semantics: a job is pinned to its node's epoch. When the node
// crashes, the epoch advances and every suspended step of the old epoch
// quenches at its next resumption — it stops without touching the rebuilt
// caches or token pool (its own handles reference only the orphaned
// objects) and, for the one cluster-durable resource it may hold (the I/O
// thread), releases it first. A quenched job is never recycled. The crashed
// pair itself is re-exposed by recovery, so nothing is double-counted and
// nothing is lost.

// stage names the one continuation a job is waiting for.
type stage uint8

const (
	stFree       stage = iota // in its device's pool
	stStart                   // dispatched; first step deferred one event
	stDevice                  // device-cache acquisition
	stHost                    // host-cache acquisition
	stFetch                   // distributed-cache lookup
	stIOWait                  // queued for the node's I/O thread
	stRead                    // storage read
	stParse                   // CPU parse of the file
	stStage                   // H2D copy of the parsed file
	stPreprocess              // GPU pre-processing kernel
	stFill                    // H2D copy of a payload the host level supplied
	stWriteBack               // D2H copy of a loaded item into the host cache
	stCompare                 // comparison kernel
	stResult                  // D2H copy of the comparison result
	stPost                    // CPU post-processing
)

// job carries one comparison (i, j) through the pipeline of Fig. 2
// (bottom): acquire both items via the cache hierarchy, run the compare
// kernel, move the result, post-process, account completion.
type job struct {
	n     *nodeRT
	d     *devRT
	epoch int
	i, j  int
	stage stage
	// second is set once the lease on i is held and j is being acquired.
	second bool
	// hi and hj are the device read leases on the two items.
	hi, hj cache.Handle

	// Acquisition state of the item in flight: the device write lease to
	// fill, the host lease (read on a host hit, else write), the payload on
	// its way to the device, and the start of the open I/O or fetch span.
	item   int
	dh, hh cache.Handle
	data   interface{}
	t0     sim.Time
	// lookup is the distributed-cache fetch of item; it resumes step.
	lookup dht.Lookup

	// The continuations (run, onUse, onLease), bound once.
	step   func()
	used   func(start sim.Time)
	leased func(h cache.Handle, hit bool)
}

// takeJob returns a free job of device d, creating one when every pooled
// job is in flight; the job-token limit bounds both.
func (n *nodeRT) takeJob(d *devRT) *job {
	if k := len(d.free); k > 0 {
		jb := d.free[k-1]
		d.free = d.free[:k-1]
		return jb
	}
	// devRTs are rebuilt on every crash, so the epoch a device was built
	// in is the epoch of every job it ever pools.
	jb := &job{n: n, d: d, epoch: n.epoch}
	jb.step, jb.used, jb.leased = jb.run, jb.onUse, jb.onLease
	jb.lookup.Resume = jb.step
	return jb
}

// recycle returns a finished job to its device's pool.
func (jb *job) recycle() {
	if jb.stage == stFree {
		panic(fmt.Sprintf("core: job (%d, %d) recycled twice", jb.i, jb.j))
	}
	if jb.lookup.Pending() {
		panic(fmt.Sprintf("core: job (%d, %d) recycled with its lookup of item %d pending", jb.i, jb.j, jb.item))
	}
	jb.stage = stFree
	jb.second = false
	jb.d.free = append(jb.d.free, jb)
}

// startJob launches the job chain for pair (i, j) on worker w's device.
// The first step is deferred one event, a slot in the dispatch order that
// the experiment hashes pin.
func (n *nodeRT) startJob(w int, i, j int) {
	jb := n.takeJob(n.devs[w])
	jb.i, jb.j, jb.stage = i, j, stStart
	if n.rt.inj != nil {
		n.inflight[pairIJ{i, j}] = struct{}{}
	}
	n.rt.env.Defer(jb.step)
}

// stale reports whether the job belongs to a crashed incarnation of its
// node. Stale steps stop silently; recovery already re-exposed the pair.
// Every continuation asks first, so this also catches one that outlives
// its job while the job sits in the pool. None can arrive after takeJob
// reissued the object: a resource or cache continuation is queued exactly
// once per wait, and a lookup resumes its job only through the engine's
// pending table, which holds the lookup for one request ID, lets go of it
// when that request resolves, and is emptied by a crash.
func (jb *job) stale() bool {
	if jb.stage == stFree {
		panic(fmt.Sprintf("core: job (%d, %d) resumed after recycling", jb.i, jb.j))
	}
	return jb.epoch != jb.n.epoch
}

// run continues the job after a func() wait.
func (jb *job) run() {
	rt := jb.n.rt
	switch jb.stage {
	case stStart:
		if !jb.stale() {
			jb.acquire(jb.i)
		}
	case stFetch:
		if !jb.stale() {
			jb.onFetch()
		}
	case stIOWait:
		if jb.stale() {
			// The I/O thread outlives the crash (it belongs to the cluster
			// node, not the epoch); hand it back before quenching.
			jb.n.node.IO.Release(rt.env)
			return
		}
		// Remote I/O through this node's I/O thread. The interval covers
		// the whole storage interaction including server-side queueing:
		// that is exactly the time the paper's I/O thread is occupied.
		jb.t0 = rt.env.Now()
		jb.stage = stRead
		rt.cl.Storage.ReadFunc(rt.env, rt.app.FileSize(jb.item), jb.step)
	case stRead:
		jb.n.node.IO.Release(rt.env)
		if jb.stale() {
			return
		}
		rt.record(PhaseIO, jb.n.node.IO.Name(), jb.item, -1, jb.t0)
		if pt := rt.app.ParseTime(jb.item); pt > 0 {
			jb.stage = stParse
			jb.n.node.CPU.UseFunc(rt.env, pt, jb.used)
			return
		}
		jb.copyIn(stStage)
	default:
		panic(fmt.Sprintf("core: job (%d, %d) stepped in stage %d", jb.i, jb.j, jb.stage))
	}
}

// onUse continues the job after a timed hold of a device engine or the
// CPU pool that was granted at start.
func (jb *job) onUse(start sim.Time) {
	if jb.stale() {
		return
	}
	rt, dev := jb.n.rt, jb.d.dev
	switch jb.stage {
	case stParse:
		jb.record(PhaseParse, jb.n.node.CPU.Name(), start)
		jb.copyIn(stStage)
	case stStage:
		jb.record(PhaseH2D, dev.H2D.Name(), start)
		if ppt := rt.app.PreprocessTime(jb.item); ppt > 0 {
			jb.stage = stPreprocess
			dev.LaunchKernel(rt.env, ppt, jb.used)
			return
		}
		jb.materialize()
	case stPreprocess:
		jb.record(PhasePreprocess, dev.ID, start)
		jb.materialize()
	case stFill:
		jb.record(PhaseH2D, dev.H2D.Name(), start)
		jb.dh.SetData(jb.data)
		jb.dh.Publish(rt.env)
		jb.hh.Release(rt.env)
		jb.acquired(jb.dh)
	case stWriteBack:
		jb.record(PhaseD2H, dev.D2H.Name(), start)
		jb.hh.SetData(jb.data)
		jb.hh.Publish(rt.env)
		jb.hh.Release(rt.env)
		jb.acquired(jb.dh)
	case stCompare:
		jb.record(PhaseCompare, dev.ID, start)
		// Transfer the comparison result device -> host.
		if rs := rt.app.ResultSize(); rs > 0 {
			jb.stage = stResult
			dev.CopyD2H(rt.env, rs, jb.used)
			return
		}
		jb.post()
	case stResult:
		jb.record(PhaseD2H, dev.D2H.Name(), start)
		jb.post()
	case stPost:
		jb.record(PhasePost, jb.n.node.CPU.Name(), start)
		jb.finish()
	default:
		panic(fmt.Sprintf("core: job (%d, %d) held a resource in stage %d", jb.i, jb.j, jb.stage))
	}
}

// record logs the interval [start, now] of the current stage: against the
// item being loaded up to the comparison, against the pair from there on.
func (jb *job) record(p Phase, resource string, start sim.Time) {
	item, item2 := jb.item, -1
	if jb.stage >= stCompare {
		item, item2 = jb.i, jb.j
	}
	jb.n.rt.record(p, resource, item, item2, start)
}

// acquire obtains a read lease for item on the job's device, walking the
// hierarchy of Fig. 4: device cache, host cache, distributed cache, and
// finally the full load pipeline. It ends in acquired, or in fail when a
// real-kernel load errors.
func (jb *job) acquire(item int) {
	jb.item = item
	jb.stage = stDevice
	jb.d.cache.AcquireFunc(item, jb.leased)
}

// onLease continues the walk with the lease a cache level granted.
func (jb *job) onLease(h cache.Handle, hit bool) {
	if jb.stale() {
		return
	}
	rt := jb.n.rt
	switch jb.stage {
	case stDevice:
		if hit {
			jb.acquired(h)
			return
		}
		// Device miss: the device write lease is ours to fill.
		jb.dh = h
		if jb.n.host == nil {
			// No host cache: load straight through to the device.
			jb.load()
			return
		}
		jb.stage = stHost
		jb.n.host.AcquireFunc(jb.item, jb.leased)
	case stHost:
		jb.hh = h
		if hit {
			jb.data = h.Data()
			jb.copyIn(stFill)
			return
		}
		// Host miss: we hold the host write lease; try the distributed
		// cache.
		if jb.n.dht != nil {
			jb.t0 = rt.env.Now()
			jb.stage = stFetch
			jb.n.dht.Fetch(rt.env, jb.item, &jb.lookup)
			return
		}
		jb.load()
	default:
		panic(fmt.Sprintf("core: job (%d, %d) granted a lease in stage %d", jb.i, jb.j, jb.stage))
	}
}

// onFetch continues after the distributed-cache lookup: a peer's copy
// fills the host slot and moves on to the device, a miss falls back to the
// load pipeline.
func (jb *job) onFetch() {
	rt := jb.n.rt
	rt.record(PhaseFetch, jb.n.netName, jb.item, -1, jb.t0)
	if !jb.lookup.Hit {
		jb.load()
		return
	}
	jb.data, jb.lookup.Data = jb.lookup.Data, nil
	jb.hh.SetData(jb.data)
	jb.hh.Publish(rt.env)
	jb.copyIn(stFill)
}

// copyIn charges the host-to-device transfer of one item as stage st: the
// parsed file on its way to pre-processing (stStage), or a payload the
// host level supplied, jb.hh being a read lease on it (stFill).
func (jb *job) copyIn(st stage) {
	rt := jb.n.rt
	jb.stage = st
	jb.d.dev.CopyH2D(rt.env, rt.app.ItemSize(), jb.used)
}

// load executes the load pipeline ell(item) of Fig. 2: remote I/O, CPU
// parse, host-to-device transfer, and the GPU pre-processing kernel. The
// result lands on the device first (the last stage runs there), then is
// copied back so the host cache — and thus the distributed cache — can
// serve it (§4.1.2).
func (jb *job) load() {
	rt := jb.n.rt
	rt.loads++
	jb.stage = stIOWait
	jb.n.node.IO.AcquireFunc(rt.env, jb.step)
}

// materialize ends the load pipeline: it produces the payload for
// real-kernel applications, publishes the device slot, and writes the item
// back to the host cache when there is one.
func (jb *job) materialize() {
	rt := jb.n.rt
	var data interface{}
	if rt.comp != nil {
		var err error
		if data, err = rt.comp.LoadItem(jb.item); err != nil {
			jb.dh.Abort(rt.env)
			if jb.n.host != nil {
				jb.hh.Abort(rt.env)
			}
			if jb.second {
				jb.hi.Release(rt.env)
			}
			jb.fail(fmt.Errorf("load item %d: %w", jb.item, err))
			return
		}
	}
	jb.dh.SetData(data)
	jb.dh.Publish(rt.env)
	if jb.n.host == nil {
		jb.acquired(jb.dh)
		return
	}
	jb.data = data
	jb.stage = stWriteBack
	jb.d.dev.CopyD2H(rt.env, rt.app.ItemSize(), jb.used)
}

// acquired takes the device read lease on the item in flight: the first
// goes on to acquire j, the second to the comparison kernel on the GPU.
func (jb *job) acquired(h cache.Handle) {
	jb.data = nil
	if !jb.second {
		jb.hi, jb.second = h, true
		jb.acquire(jb.j)
		return
	}
	jb.hj = h
	rt := jb.n.rt
	jb.stage = stCompare
	jb.d.dev.LaunchKernel(rt.env, rt.app.CompareTime(jb.i, jb.j), jb.used)
}

// post runs the post-processing step on the CPU pool.
func (jb *job) post() {
	rt := jb.n.rt
	if pt := rt.app.PostprocessTime(jb.i, jb.j); pt > 0 {
		jb.stage = stPost
		jb.n.node.CPU.UseFunc(rt.env, pt, jb.used)
		return
	}
	jb.finish()
}

// finish runs real kernels when provided, releases both leases, and
// accounts the completed pair. The job token is returned last.
func (jb *job) finish() {
	rt := jb.n.rt
	var value interface{}
	if rt.comp != nil {
		v, cerr := rt.comp.ComparePair(jb.i, jb.j, jb.hi.Data(), jb.hj.Data())
		if cerr != nil {
			jb.hi.Release(rt.env)
			jb.hj.Release(rt.env)
			jb.fail(fmt.Errorf("compare (%d, %d): %w", jb.i, jb.j, cerr))
			return
		}
		value = v
	}
	if rt.cfg.CollectResults {
		rt.results = append(rt.results, Result{I: jb.i, J: jb.j, Value: value})
	}
	if rt.plan != nil {
		rt.emitResult(jb.i, jb.j, value)
	}
	jb.hi.Release(rt.env)
	jb.hj.Release(rt.env)
	jb.n.pairCompleted(jb)
	jb.d.jobTokens.Release(rt.env)
	jb.recycle()
}

// fail records the error and returns the job token.
func (jb *job) fail(err error) {
	rt := jb.n.rt
	if rt.inj != nil {
		delete(jb.n.inflight, pairIJ{jb.i, jb.j})
	}
	rt.fail(err)
	jb.d.jobTokens.Release(rt.env)
	jb.recycle()
}

// pairCompleted updates counters, the per-device throughput series, and
// fires the completion signal after the final pair.
func (n *nodeRT) pairCompleted(jb *job) {
	rt := n.rt
	if rt.inj != nil {
		delete(n.inflight, pairIJ{jb.i, jb.j})
	}
	rt.pairsDone++
	if rt.throughput != nil {
		ts, ok := rt.throughput[jb.d.dev.ID]
		if !ok {
			ts = stats.NewTimeSeries(rt.cfg.ThroughputWindow.Seconds())
			rt.throughput[jb.d.dev.ID] = ts
		}
		ts.Add(rt.env.Now().Seconds(), 1)
	}
	if rt.pairsDone == rt.totalPairs {
		rt.markFinished()
		rt.done = true
		// The computation is complete (and, under fault injection, the
		// completion time pinned); making the emitted results durable is
		// charged on top and extends the reported runtime of fault-free
		// runs.
		rt.flushStore()
	}
}

// markFinished pins the completion time (see runtime.finishedAt).
func (rt *runtime) markFinished() {
	if !rt.finished {
		rt.finished = true
		rt.finishedAt = rt.env.Now()
	}
}

// fail records the first error and unblocks the run.
func (rt *runtime) fail(err error) {
	if rt.err == nil {
		rt.err = err
	}
	rt.markFinished()
	rt.done = true
}
