// Quickstart: define a minimal all-pairs application against the public
// rocket API and run it on a simulated two-node GPU cluster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rocket"
	"rocket/internal/sim"
)

// wordApp compares every pair of words by a (simulated) GPU kernel and
// computes their shared-letter count on the CPU side as the real result.
// It implements rocket.Application (the cost model: sizes and stage
// durations) and core.Computer (the real kernels) from rocket/internal/core.
type wordApp struct {
	words []string
}

func (a *wordApp) Name() string                      { return "quickstart" }
func (a *wordApp) NumItems() int                     { return len(a.words) }
func (a *wordApp) FileSize(item int) int64           { return int64(len(a.words[item])) }
func (a *wordApp) ItemSize() int64                   { return 1 << 20 }
func (a *wordApp) ResultSize() int64                 { return 8 }
func (a *wordApp) ParseTime(int) sim.Time            { return sim.Millis(10) }
func (a *wordApp) PreprocessTime(int) sim.Time       { return sim.Millis(2) }
func (a *wordApp) CompareTime(int, int) sim.Time     { return sim.Millis(1) }
func (a *wordApp) PostprocessTime(int, int) sim.Time { return 0 }

// LoadItem is the real load pipeline: here it just produces the letter
// set of the word.
func (a *wordApp) LoadItem(item int) (interface{}, error) {
	set := map[rune]bool{}
	for _, r := range a.words[item] {
		set[r] = true
	}
	return set, nil
}

// ComparePair counts shared letters.
func (a *wordApp) ComparePair(i, j int, x, y interface{}) (interface{}, error) {
	xs, ys := x.(map[rune]bool), y.(map[rune]bool)
	shared := 0
	for r := range xs {
		if ys[r] {
			shared++
		}
	}
	return shared, nil
}

func main() {
	app := &wordApp{words: []string{
		"rocket", "cache", "steal", "pairs", "gpu", "cluster", "async", "reuse",
	}}

	r := rocket.New(
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDistCache(true),
		rocket.WithCollectResults(true),
		rocket.WithSeed(1),
	)
	m, err := r.Run(app)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("compared %d pairs in %v of simulated time (R = %.2f, %d loads)\n\n",
		m.Pairs, m.Runtime, m.R, m.Loads)
	for _, r := range m.Results {
		fmt.Printf("  %-8s ~ %-8s share %d letters\n", app.words[r.I], app.words[r.J], r.Value)
	}
}
