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
	// NodeSpec describes one node's hardware.
	NodeSpec = cluster.NodeSpec
	// GPUModel identifies a GPU product.
	GPUModel = gpu.Model
)

// TitanXMaxwell is the GPU of the paper's DAS-5 nodes.
var TitanXMaxwell = gpu.TitanXMaxwell

// PolicyFairShare is the scheduler's fair-share policy (see sched.Policy).
const PolicyFairShare = sched.PolicyFairShare

// ParseQueuePolicy maps a manifest name ("fifo", "sjf", "fair") to a
// policy.
func ParseQueuePolicy(name string) (sched.Policy, error) { return sched.ParsePolicy(name) }

// Service types: see package rocket/internal/serve.
type (
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
