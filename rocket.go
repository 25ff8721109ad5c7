// Package rocket is the public API of the Rocket reproduction: a framework
// for efficient and scalable all-pairs computations on (simulated)
// heterogeneous GPU platforms, after Heldens et al., SC 2020.
//
// An all-pairs application evaluates a user-defined comparison for every
// pair of items in a data set. Rocket maximizes data reuse with a
// three-level software cache (GPU device memory, host memory, and a
// cluster-wide distributed cache), balances irregular work over
// heterogeneous GPUs with divide-and-conquer hierarchical work-stealing,
// and overlaps I/O, CPU work, PCIe transfers, and GPU kernels through
// fully asynchronous processing.
//
// Quick start:
//
//	app := forensics.New(forensics.Params{N: 996})
//	r := rocket.New(
//		rocket.WithHomogeneous(16, rocket.DAS5Node(rocket.TitanXMaxwell)),
//		rocket.WithDistCache(true),
//	)
//	metrics, err := r.Run(app)
//
// Runners are reusable: each Run simulates a fresh cluster, so the same
// Runner yields bit-identical Metrics for the same application and seed.
//
// Because Go has no mature CUDA bindings, the hardware substrate (GPUs,
// network, storage) is a deterministic discrete-event simulation; the
// runtime system itself — caches, scheduling, the distributed-cache
// protocol, asynchronous pipelines — is real, fully exercised code. See
// DESIGN.md for the substitution argument and EXPERIMENTS.md for the
// reproduced results.
package rocket

import (
	"io"

	"rocket/internal/cluster"
	"rocket/internal/core"
	"rocket/internal/gpu"
	"rocket/internal/obs"
	"rocket/internal/pairstore"
	"rocket/internal/sched"
	"rocket/internal/serve"
)

// Re-exported core types: see package rocket/internal/core for full
// documentation.
type (
	// Metrics is the outcome of a run.
	Metrics = core.Metrics
	// Application is the cost-model interface every application
	// implements (paper Fig. 3).
	Application = core.Application
	// Computer is the optional real-kernel extension.
	Computer = core.Computer
	// Result is one collected comparison output.
	Result = core.Result
	// NodeSpec describes one node's hardware.
	NodeSpec = cluster.NodeSpec
	// GPUModel identifies a GPU product.
	GPUModel = gpu.Model
)

// GPU models of the evaluation platforms.
var (
	TitanXMaxwell = gpu.TitanXMaxwell
	TitanXPascal  = gpu.TitanXPascal
	GTX980        = gpu.GTX980
	GTXTitan      = gpu.GTXTitan
	K20m          = gpu.K20m
	K40m          = gpu.K40m
	RTX2080Ti     = gpu.RTX2080Ti
)

// GiB is 2^30 bytes, for sizing host caches.
const GiB = gpu.GiB

// Scheduler types: see package rocket/internal/sched (rocketd) for full
// documentation.
type (
	// QueueConfig configures one multi-job scheduler run.
	QueueConfig = sched.Config
	// QueueJob is one all-pairs workload submitted to the scheduler.
	QueueJob = sched.Job
	// QueueMetrics is the fleet-wide outcome of a scheduler run.
	QueueMetrics = sched.Metrics
	// JobMetrics is one job's outcome within QueueMetrics.
	JobMetrics = sched.JobMetrics
	// QueuePolicy selects the placement order of queued jobs.
	QueuePolicy = sched.Policy
)

// Queue policies (see sched.Policy).
const (
	PolicyFIFO      = sched.PolicyFIFO
	PolicySJF       = sched.PolicySJF
	PolicyFairShare = sched.PolicyFairShare
)

// ParseQueuePolicy maps a manifest name ("fifo", "sjf", "fair") to a
// policy.
func ParseQueuePolicy(name string) (QueuePolicy, error) { return sched.ParsePolicy(name) }

// Online-scheduling types: see package rocket/internal/sched (Online) and
// rocket/internal/serve.
type (
	// QueueSubmitter is the online scheduler: jobs are submitted while
	// the fleet runs, and every served trace is replayable offline.
	QueueSubmitter = sched.Online
	// QueueJobInfo is a point-in-time snapshot of one online submission.
	QueueJobInfo = sched.JobInfo
	// QueueJobStatus is an online submission's lifecycle position.
	QueueJobStatus = sched.JobStatus
	// QueueEvent is one entry of the online scheduler's event stream.
	QueueEvent = sched.Event
	// ServeConfig configures the rocketd HTTP service layer.
	ServeConfig = serve.Config
	// ServeDataset is one registered append-only dataset (the unit of
	// incremental serving); persisted across daemon restarts alongside
	// the pair store.
	ServeDataset = serve.Dataset
	// Server is the rocketd HTTP service: an online scheduler behind a
	// REST + SSE API with a replayable arrival log.
	Server = serve.Server
)

// ErrShuttingDown is returned by QueueSubmitter.Submit once Shutdown has
// begun.
var ErrShuttingDown = sched.ErrShuttingDown

// Serve starts rocketd's HTTP service layer over an online scheduler.
// The returned server exposes its http.Handler; pair it with an
// http.Server and call Shutdown to drain.
func Serve(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Pair-store types: see package rocket/internal/pairstore for full
// documentation. The store is what makes repeated all-pairs workloads
// incremental: results are keyed by content (item digests), runs skip
// pairs that are already resident, and a dataset that grows from n to
// n+k items costs only the k·n + k(k-1)/2 new pairs.
type (
	// PairStore is the persistent all-pairs result store: an append-only
	// segment log with an in-memory content-addressed index.
	PairStore = pairstore.Store
	// PairStoreSnapshot is an immutable view a run consults
	// (WithStoreSnapshot).
	PairStoreSnapshot = pairstore.Snapshot
	// PairBatch collects one run's emitted results (WithStoreBatch) for
	// a post-run merge.
	PairBatch = pairstore.Batch
	// PairDigest identifies one item's content within a dataset lineage.
	PairDigest = pairstore.Digest
)

// Observability types: see package rocket/internal/obs for full
// documentation. The flight recorder collects virtual-time spans whose
// exported timelines are byte-identical across reruns — instrumentation
// under the same determinism contract as the results.
type (
	// SpanRecorder is the flight recorder: per-lane fixed-size rings of
	// virtual-time spans, nil-safe (a nil recorder is the off state).
	SpanRecorder = obs.Recorder
	// Span is one recorded interval of virtual time on a track.
	Span = obs.Span
	// SpanSnapshot is a canonical-order copy of a recorder's contents.
	SpanSnapshot = obs.Snapshot
	// TraceExportOptions is ExportTrace's settings (none today).
	TraceExportOptions = obs.ExportOptions
)

// NewSpanRecorder returns a flight recorder with the given number of
// lanes (minimum 1) and per-lane span capacity (0 = the 64Ki default).
// Pass it to New via WithSpans.
func NewSpanRecorder(lanes, capacity int) *SpanRecorder { return obs.New(lanes, capacity) }

// ExportTrace writes a span snapshot as Chrome trace-event JSON,
// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing. The byte
// stream is a pure function of the snapshot, so exports diff cleanly.
func ExportTrace(w io.Writer, snap SpanSnapshot, opts TraceExportOptions) error {
	return obs.WriteTrace(w, snap, opts)
}

// NewPairStore returns an empty pair store.
func NewPairStore() *PairStore { return pairstore.New() }

// NewPairBatch returns an empty emission batch.
func NewPairBatch() *PairBatch { return pairstore.NewBatch() }

// LoadPairStore reloads a store saved with PairStore.Save.
func LoadPairStore(path string) (*PairStore, error) { return pairstore.Load(path) }

// LoadOrNewPairStore reloads the store at path, or returns a fresh one
// (loaded = false) when no file exists there yet. Pair it with
// PairStore.SealAndSave for the CLI persistence lifecycle.
func LoadOrNewPairStore(path string) (s *PairStore, loaded bool, err error) {
	return pairstore.LoadOrNew(path)
}

// PairDigestFunc returns the per-item digest function of a dataset
// lineage (store namespace, application name, dataset seed); pass it to
// WithItemDigest.
func PairDigestFunc(ref, app string, seed uint64) func(item int) PairDigest {
	return pairstore.DigestFunc(ref, app, seed)
}

// DeltaPairs returns the size of the minimal new-vs-all pair set when a
// dataset grows from base to n items.
func DeltaPairs(n, base int) int64 { return pairstore.DeltaPairs(n, base) }

// DAS5Node returns the paper's DAS-5 node type: 16 cores and a 40 GiB host
// cache, with the given GPUs installed.
func DAS5Node(gpus ...GPUModel) NodeSpec { return cluster.DAS5Node(gpus...) }

// PaperTopology returns the four mixed-generation node specs of §6.5:
// node I (K20m), node II (GTX980 + TitanX Pascal), node III (2x
// RTX2080Ti), and node IV (GTX Titan + TitanX Pascal). Pass it to
// WithTopology.
func PaperTopology() []NodeSpec { return cluster.PaperTopology() }
