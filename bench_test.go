package rocket_test

import (
	"fmt"
	"testing"

	"rocket/internal/experiments"
)

// BenchmarkPairstoreScale is the storage-scaling sweep up to 10^7 pairs.
// Each point builds an all-pairs store of the given size through the full
// lifecycle (auto-sealed ingestion, compaction, persistence, reload) and
// plans a 10% delta against the reloaded snapshot, reporting on-disk
// bytes/pair and the resident probe-index footprint; a plan that misses a
// resident pair fails the point. The 10^5 and 10^6 points are pinned
// exactly by internal/experiments' TestStorageGolden; 10^7 (tens of
// seconds) is the headroom check only this benchmark runs.
//
//	go test -bench BenchmarkPairstoreScale -benchtime 1x -run '^$' .
func BenchmarkPairstoreScale(b *testing.B) {
	for _, pairs := range []int64{100_000, 1_000_000, 10_000_000} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
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
