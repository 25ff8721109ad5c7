// Command benchgate is the CI benchmark regression gate: it compares a
// candidate BENCH_<run>.json (freshly produced by rocketbench) against
// the committed baseline and fails the build when a count that repeats
// exactly — output bytes, allocations, heap pushes, disk bytes — moved.
// Reports carry no host time (bench/ is the timing reference); baselines
// written while they did still decode, and their time columns are
// ignored.
//
// Usage:
//
//	benchgate -baseline BENCH_pr2.json -candidate BENCH_ci.json
//	benchgate ... -summary "$GITHUB_STEP_SUMMARY"
//
// Gates:
//
//   - determinism (always fatal): every experiment present in the baseline
//     must exist in the candidate with a bit-identical output_sha256;
//   - allocations (always fatal): each experiment's allocs_per_op may
//     exceed the baseline's by at most 2% — the count repeats to a fraction
//     of a percent, so more is a change in the code, not noise. A drop is
//     printed in the row and not gated. Reports taken at different
//     GOMAXPROCS (or scale, or seed) are refused as incomparable: the
//     scheduler's inner simulations run on one worker per OS thread;
//   - heap pushes (always fatal): each experiment's heap_pushes — how many
//     of its events the engine ordered through its heap rather than its
//     now-lane, exact at a seed — may not exceed the baseline's. Skipped
//     for a baseline that predates the column;
//   - storage (always fatal): the pairstore scaling trajectory's
//     bytes/pair must stay under the 8 bytes/pair capability floor at
//     10^6+ pairs and within 10% of the baseline at matched sizes, a plan
//     may decode each block at most once, and the delta-plan hash must
//     match the baseline exactly.
//
// -summary appends a markdown table to the given file (pass
// $GITHUB_STEP_SUMMARY in CI to surface the diff on the job page).
package main

import (
	"flag"
	"fmt"
	"os"

	"rocket/internal/benchfmt"
)

func run() error {
	var (
		baseline  = flag.String("baseline", "BENCH_pr2.json", "committed baseline BENCH json")
		candidate = flag.String("candidate", "BENCH_ci.json", "freshly produced BENCH json")
		summary   = flag.String("summary", "", "append a markdown summary to this file")
	)
	flag.Parse()

	base, err := benchfmt.Read(*baseline)
	if err != nil {
		return err
	}
	cand, err := benchfmt.Read(*candidate)
	if err != nil {
		return err
	}
	g := benchfmt.Gate(base, cand)
	fmt.Print(g.Text())
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.WriteString(g.Markdown()); err != nil {
			return err
		}
	}
	if g.Failed() {
		return fmt.Errorf("gate failed (%d failures)", len(g.Failures))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
