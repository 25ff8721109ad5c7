package rocket_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// executes the corresponding experiment end to end on the simulated
// platform and prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Workload scale is controlled with the
// ROCKET_SCALE environment variable (default 10; 1 = paper scale, slow).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"rocket/internal/experiments"
)

var benchPrinted sync.Map

func benchOptions() experiments.Options {
	scale := 10
	if v := os.Getenv("ROCKET_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			scale = n
		}
	}
	return experiments.Options{Scale: scale, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := benchPrinted.LoadOrStore(id, true); !done {
			fmt.Printf("\n=== %s (%s): %s ===\n%s\n", e.ID, e.Paper, e.Description, out)
		}
	}
}

// Paper artefacts.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }

// Ablations of the design choices called out in DESIGN.md §5.

func BenchmarkAblationLeafSize(b *testing.B)    { benchExperiment(b, "ablation-leaf") }
func BenchmarkAblationJobLimit(b *testing.B)    { benchExperiment(b, "ablation-joblimit") }
func BenchmarkAblationStealPolicy(b *testing.B) { benchExperiment(b, "ablation-steal") }
func BenchmarkAblationHops(b *testing.B)        { benchExperiment(b, "ablation-hops") }
func BenchmarkAblationEviction(b *testing.B)    { benchExperiment(b, "ablation-eviction") }
func BenchmarkAblationPrewarm(b *testing.B)     { benchExperiment(b, "ablation-prewarm") }
func BenchmarkAblationBackoff(b *testing.B)     { benchExperiment(b, "ablation-backoff") }

// Scheduler subsystem (rocketd): job count x policy sweep over a skewed
// two-tenant mix, reporting makespan, mean wait, and utilization.

func BenchmarkQueueScaling(b *testing.B) { benchExperiment(b, "queue-scaling") }

// Fault-injection subsystem: crash/straggler/partition sweep with
// steal-based recovery, reporting completion-time inflation against the
// failure-free baseline.

func BenchmarkResilience(b *testing.B) { benchExperiment(b, "resilience") }

// Pair-store subsystem: append-ratio sweep measuring the warm-start
// payoff of serving resident pairs from the persistent result store
// (expected: ≥5x over full recompute at 10% growth).

func BenchmarkIncremental(b *testing.B) { benchExperiment(b, "incremental") }

// Elastic-membership subsystem: a fleet under seeded churn plus the
// autoscaler's node-seconds vs p99-wait trade against a fixed
// max-size fleet (asserted inside the experiment: identical p99 at a
// strictly lower bill for the warm pool).

func BenchmarkElasticity(b *testing.B) { benchExperiment(b, "elasticity") }

// Columnar pairstore subsystem: the storage-scaling sweep. Each point
// builds an all-pairs store of the given size through the full
// lifecycle (auto-sealed ingestion, compaction, persistence, reload)
// and plans a 10% delta against the reloaded snapshot, reporting
// on-disk bytes/pair and the resident probe-index footprint; a plan that
// misses a resident pair fails the point. The 10^6-pair point is the gated capability (≤8 bytes/pair,
// plan without a resident per-pair index — see BENCH_pr9.json and
// cmd/benchgate); 10^7 is the local headroom check.
//
//	go test -bench BenchmarkPairstoreScale -benchtime 1x .
func BenchmarkPairstoreScale(b *testing.B) {
	for _, pairs := range []int64{100_000, 1_000_000, 10_000_000} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			// The 10^7 headroom point takes tens of seconds per iteration;
			// smoke runs (ROCKET_SCALE > 10, as CI sets) stop at the gated
			// 10^6 capability and leave 10^7 to full-scale local runs.
			if pairs > 1_000_000 && benchOptions().Scale > 10 {
				b.Skipf("skipping %d-pair headroom point at smoke scale", pairs)
			}
			for i := 0; i < b.N; i++ {
				sr, err := experiments.MeasureStorage(pairs, 1)
				if err != nil {
					b.Fatal(err)
				}
				if sr.Pairs >= 1_000_000 && sr.BytesPerPair > 8 {
					b.Fatalf("%.2f bytes/pair at %d pairs exceeds the 8 bytes/pair floor",
						sr.BytesPerPair, sr.Pairs)
				}
				// The plan must run off the bounded probe index, not a
				// resident per-pair structure: fences + dictionary + bloom
				// land around 1.3 bytes/pair; 4 is generous headroom.
				if sr.IndexResidentBytes > 4*sr.Pairs {
					b.Fatalf("resident index %d bytes for %d pairs — planning is not index-bounded",
						sr.IndexResidentBytes, sr.Pairs)
				}
				b.ReportMetric(sr.BytesPerPair, "bytes/pair")
				b.ReportMetric(float64(sr.IndexResidentBytes), "index-bytes")
			}
		})
	}
}
