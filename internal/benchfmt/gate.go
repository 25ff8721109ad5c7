package benchfmt

import (
	"fmt"
	"strings"
)

// maxAllocsRegress is the tolerated relative allocs_per_op growth per
// experiment. Allocation counts repeat to within 0.2% run over run (map
// growth and the runtime's own bookkeeping move them by a few objects), so
// 2% is far outside noise and any excess is a real change in the code.
const maxAllocsRegress = 0.02

// GateRow is one experiment's comparison.
type GateRow struct {
	ID string
	// BaselineAllocs and CandidateAllocs are the two allocs_per_op.
	BaselineAllocs  uint64
	CandidateAllocs uint64
	// Verdict is "ok", "drift" (output_sha256 mismatch), "allocs"
	// (allocs_per_op beyond maxAllocsRegress), "heap" (heap_pushes above
	// the baseline's), "missing" (in baseline, not candidate), or "new"
	// (no baseline to compare against).
	Verdict string
}

// GateResult is the full gate outcome.
type GateResult struct {
	Rows     []GateRow
	Failures []string
	// StorageNote summarizes the storage trajectory comparison (empty
	// when the candidate has no trajectory).
	StorageNote string
	// StorageRows compares the storage trajectory point by point.
	StorageRows []StorageGateRow
}

// StorageGateRow is one dataset size's storage comparison.
type StorageGateRow struct {
	Pairs        int64
	BaselineBPP  float64 // baseline bytes/pair (0 when the point is new)
	CandidateBPP float64
	IndexBytes   int64
	// Verdict is "ok", "new", "bloat" (bytes/pair gate), "redecode" (a
	// plan inflated a block more than once), "drift" (plan hash), or
	// "ingest" (ingest bytes or objects per pair beyond maxAllocsRegress).
	Verdict string
}

// Failed reports whether the gate should fail the build.
func (g GateResult) Failed() bool { return len(g.Failures) > 0 }

// Gate compares a candidate run against the committed baseline:
// determinism first (every shared experiment's output_sha256 must match,
// and nothing from the baseline may disappear), then the other
// deterministic columns — allocs_per_op may not grow beyond
// maxAllocsRegress and heap_pushes, an exact count, may not grow at all
// (a baseline that predates the column is not held to it); drops are not
// gated.
//
// Reports taken at different GOMAXPROCS are not comparable: the scheduler
// runs its inner simulations on one worker goroutine per OS thread, so the
// queue experiments' allocation counts move with the thread count.
func Gate(baseline, candidate Report) GateResult {
	var g GateResult
	base := make(map[string]ExpResult, len(baseline.Experiments))
	for _, e := range baseline.Experiments {
		base[e.ID] = e
	}
	if baseline.Scale != candidate.Scale || baseline.Seed != candidate.Seed ||
		baseline.GoMaxProcs != candidate.GoMaxProcs {
		g.Failures = append(g.Failures, fmt.Sprintf(
			"incomparable runs: baseline scale/seed/GOMAXPROCS %d/%d/%d vs candidate %d/%d/%d",
			baseline.Scale, baseline.Seed, baseline.GoMaxProcs,
			candidate.Scale, candidate.Seed, candidate.GoMaxProcs))
		return g
	}
	seen := make(map[string]bool, len(candidate.Experiments))
	for _, c := range candidate.Experiments {
		seen[c.ID] = true
		b, ok := base[c.ID]
		if !ok {
			g.Rows = append(g.Rows, GateRow{ID: c.ID, CandidateAllocs: c.AllocsPerOp, Verdict: "new"})
			continue
		}
		row := GateRow{ID: c.ID, BaselineAllocs: b.AllocsPerOp, CandidateAllocs: c.AllocsPerOp}
		allocsUp := b.AllocsPerOp > 0 &&
			float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxAllocsRegress)
		switch {
		case b.OutputSHA256 != c.OutputSHA256:
			row.Verdict = "drift"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: output_sha256 drifted (%.12s… -> %.12s…): results are no longer bit-identical to the baseline",
				c.ID, b.OutputSHA256, c.OutputSHA256))
		case allocsUp:
			row.Verdict = "allocs"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: allocs_per_op grew %.1f%% (%d -> %d, limit %.0f%%)",
				c.ID, 100*(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1),
				b.AllocsPerOp, c.AllocsPerOp, 100*maxAllocsRegress))
		case b.HeapPushes > 0 && c.HeapPushes > b.HeapPushes:
			row.Verdict = "heap"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: heap_pushes grew (%d -> %d of %d events): more events are ordered through the engine's heap than at the baseline",
				c.ID, b.HeapPushes, c.HeapPushes, c.Events))
		default:
			row.Verdict = "ok"
		}
		g.Rows = append(g.Rows, row)
	}
	for _, b := range baseline.Experiments {
		if !seen[b.ID] {
			g.Rows = append(g.Rows, GateRow{ID: b.ID, BaselineAllocs: b.AllocsPerOp, Verdict: "missing"})
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: present in baseline but missing from candidate run", b.ID))
		}
	}
	gateStorage(baseline, candidate, &g)
	return g
}

// maxBytesPerPairAtScale is the absolute storage-efficiency floor: at
// a million pairs and beyond, a columnar segment store that cannot
// keep a pair under 8 on-disk bytes has lost the capability this
// repo's scaling claim rests on, regardless of what the baseline did.
const (
	maxBytesPerPairAtScale = 8.0
	bytesPerPairScaleFloor = 1_000_000
	// maxBytesPerPairRegress is the tolerated relative bytes/pair growth
	// vs baseline at a matched dataset size — always fatal, unlike wall
	// time: on-disk size is deterministic, so any growth is a real
	// encoding regression, and 10% is the agreed budget.
	maxBytesPerPairRegress = 0.10
)

// gateStorage checks the pairstore scaling trajectory. Four
// properties, all fatal:
//
//  1. Determinism (always fatal): the planned-residency hash at a
//     matched dataset size must equal the baseline's, and a trajectory
//     present in the baseline must not vanish.
//  2. Bytes/pair (always fatal): ≤ maxBytesPerPairAtScale at 10^6+
//     pairs, and within maxBytesPerPairRegress of the baseline at
//     matched sizes. Disk bytes are noise-free, so this gates hard
//     where a wall time cannot.
//  3. Block decodes (always fatal): the plan may inflate each block at
//     most once. The count repeats exactly, so it is the planning budget
//     a noisy runner can hold where a ns/pair budget cannot.
//  4. Ingest allocation (fatal at matched sizes): bytes and objects
//     allocated per ingested pair may grow by at most maxAllocsRegress —
//     the write path's count budget, as allocs_per_op is the runs'. A
//     baseline without the columns is not held to them.
func gateStorage(baseline, candidate Report, g *GateResult) {
	if len(candidate.StorageTrajectory) == 0 {
		if len(baseline.StorageTrajectory) > 0 {
			g.Failures = append(g.Failures,
				"storage trajectory present in baseline but missing from candidate run")
		}
		return
	}
	base := make(map[int64]StoragePoint, len(baseline.StorageTrajectory))
	for _, p := range baseline.StorageTrajectory {
		base[p.Pairs] = p
	}
	var widest StoragePoint
	for _, c := range candidate.StorageTrajectory {
		if c.Pairs > widest.Pairs {
			widest = c
		}
		row := StorageGateRow{
			Pairs:        c.Pairs,
			CandidateBPP: c.BytesPerPair,
			IndexBytes:   c.IndexResidentBytes,
			Verdict:      "ok",
		}
		if c.Pairs >= bytesPerPairScaleFloor && c.BytesPerPair > maxBytesPerPairAtScale {
			row.Verdict = "bloat"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"storage: %.2f bytes/pair at %d pairs exceeds the %.0f bytes/pair capability floor",
				c.BytesPerPair, c.Pairs, maxBytesPerPairAtScale))
		}
		if c.BlockDecodes > uint64(c.Blocks) {
			row.Verdict = "redecode"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"storage: planning %d pairs decoded %d blocks of %d: the block cache no longer holds each block for the whole plan",
				c.Pairs, c.BlockDecodes, c.Blocks))
		}
		b, ok := base[c.Pairs]
		if !ok {
			if row.Verdict == "ok" {
				row.Verdict = "new"
			}
			g.StorageRows = append(g.StorageRows, row)
			continue
		}
		row.BaselineBPP = b.BytesPerPair
		if b.PlanHash != "" && c.PlanHash != b.PlanHash {
			row.Verdict = "drift"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"storage: plan hash at %d pairs drifted (%.12s… -> %.12s…): delta planning is no longer deterministic",
				c.Pairs, b.PlanHash, c.PlanHash))
		}
		if b.BytesPerPair > 0 && c.BytesPerPair > b.BytesPerPair*(1+maxBytesPerPairRegress) {
			row.Verdict = "bloat"
			g.Failures = append(g.Failures, fmt.Sprintf(
				"storage: bytes/pair at %d pairs regressed %.1f%% (%.2f -> %.2f, limit %.0f%%)",
				c.Pairs, 100*(c.BytesPerPair/b.BytesPerPair-1), b.BytesPerPair, c.BytesPerPair,
				100*maxBytesPerPairRegress))
		}
		for _, m := range []struct {
			name       string
			base, cand float64
		}{
			{"bytes", b.IngestBytesPerPair, c.IngestBytesPerPair},
			{"objects", b.IngestAllocsPerPair, c.IngestAllocsPerPair},
		} {
			if m.base > 0 && m.cand > m.base*(1+maxAllocsRegress) {
				row.Verdict = "ingest"
				g.Failures = append(g.Failures, fmt.Sprintf(
					"storage: ingest %s per pair at %d pairs grew %.1f%% (%.4g -> %.4g, limit %.0f%%)",
					m.name, c.Pairs, 100*(m.cand/m.base-1), m.base, m.cand, 100*maxAllocsRegress))
			}
		}
		g.StorageRows = append(g.StorageRows, row)
	}
	if widest.Pairs > 0 {
		g.StorageNote = fmt.Sprintf(
			"storage: %.2f bytes/pair at %d pairs, %s resident index, bloom hit rate %.0f%%",
			widest.BytesPerPair, widest.Pairs,
			humanBytes(widest.IndexResidentBytes), 100*widest.BloomHitRate)
	}
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Markdown renders the gate outcome as a GitHub job-summary table.
func (g GateResult) Markdown() string {
	var b strings.Builder
	b.WriteString("## bench gate\n\n")
	if g.Failed() {
		b.WriteString("**FAILED**\n\n")
	} else {
		b.WriteString("passed\n\n")
	}
	for _, f := range g.Failures {
		fmt.Fprintf(&b, "- :x: %s\n", f)
	}
	b.WriteString("\n| experiment | baseline allocs | candidate allocs | verdict |\n")
	b.WriteString("|---|---:|---:|---|\n")
	for _, r := range g.Rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %s |\n", r.ID, r.BaselineAllocs, r.CandidateAllocs, r.Verdict)
	}
	if len(g.StorageRows) > 0 {
		b.WriteString("\n### storage trajectory\n\n")
		b.WriteString("| pairs | baseline bytes/pair | candidate bytes/pair | resident index | verdict |\n")
		b.WriteString("|---:|---:|---:|---:|---|\n")
		for _, r := range g.StorageRows {
			bpp := "-"
			if r.BaselineBPP > 0 {
				bpp = fmt.Sprintf("%.2f", r.BaselineBPP)
			}
			fmt.Fprintf(&b, "| %d | %s | %.2f | %s | %s |\n",
				r.Pairs, bpp, r.CandidateBPP, humanBytes(r.IndexBytes), r.Verdict)
		}
	}
	if g.StorageNote != "" {
		fmt.Fprintf(&b, "\n%s\n", g.StorageNote)
	}
	return b.String()
}

// Text renders a terminal-friendly summary.
func (g GateResult) Text() string {
	var b strings.Builder
	for _, r := range g.Rows {
		fmt.Fprintf(&b, "%-18s %9d -> %9d allocs  %s\n", r.ID, r.BaselineAllocs, r.CandidateAllocs, r.Verdict)
	}
	for _, r := range g.StorageRows {
		base := "      -"
		if r.BaselineBPP > 0 {
			base = fmt.Sprintf("%7.2f", r.BaselineBPP)
		}
		fmt.Fprintf(&b, "storage %-10d %s -> %7.2f bytes/pair  %s\n",
			r.Pairs, base, r.CandidateBPP, r.Verdict)
	}
	if g.StorageNote != "" {
		fmt.Fprintf(&b, "%s\n", g.StorageNote)
	}
	for _, f := range g.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}
