// Package microscopy implements the paper's localization-microscopy
// application (§5.3): all-to-all registration of super-resolution
// particles (point clouds of fluorophore localizations) for template-free
// particle fusion, after Heydarian et al.
//
// App is the Table-1 cost model (parse 27.4±1.56 ms, no pre-processing,
// heavily irregular comparisons 564.3±348 ms, 6 KB slots). RealApp
// implements the actual kernels in pure Go: the quadratic L2 distance
// between Gaussian mixture models, the Bhattacharyya cross-term score, and
// a rotation-search registration optimizer whose run time is data
// dependent — the source of the workload's irregularity.
package microscopy

import (
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Table 1 constants.
const (
	// DefaultN is the particle count used in the paper.
	DefaultN = 256
	// SlotBytes is the in-memory particle size (6 KB).
	SlotBytes = 6000
	// MeanFileBytes is the average JSON file size (150 MB / 256).
	MeanFileBytes = 586000
)

// Params configures the cost-model application.
type Params struct {
	// N is the number of particles; 0 means DefaultN.
	N int
	// Seed drives the duration draws.
	Seed uint64
}

// App is the microscopy cost model. It implements core.Application.
type App struct {
	n    int
	seed uint64

	parseDist stats.Dist
	cmpDist   stats.Dist
	fileDist  stats.Dist
}

// New returns the cost-model application.
func New(p Params) *App {
	n := p.N
	if n == 0 {
		n = DefaultN
	}
	return &App{
		n:    n,
		seed: p.Seed,
		// Registration is compute-intensive and heavily data-dependent
		// (Fig. 7, right: a long right tail), hence the log-normal.
		parseDist: stats.Normal{Mu: 27.4, Sigma: 1.56, Min: 1},
		cmpDist:   stats.NewLogNormal(564.3, 348),
		fileDist:  stats.Normal{Mu: MeanFileBytes, Sigma: 60000, Min: 10000},
	}
}

// Name implements core.Application.
func (a *App) Name() string { return "microscopy" }

// NumItems implements core.Application.
func (a *App) NumItems() int { return a.n }

// FileSize implements core.Application.
func (a *App) FileSize(item int) int64 {
	return int64(stats.HashSample(a.fileDist, a.seed, uint64(item), 0xfa57a))
}

// ItemSize implements core.Application.
func (a *App) ItemSize() int64 { return SlotBytes }

// ResultSize implements core.Application.
func (a *App) ResultSize() int64 { return 32 }

// ParseTime implements core.Application.
func (a *App) ParseTime(item int) sim.Time {
	return sim.Millis(stats.HashSample(a.parseDist, a.seed, uint64(item), 0x9a45e))
}

// PreprocessTime implements core.Application: the application works
// directly on the parsed localizations (§5.3), so there is no GPU
// pre-processing stage.
func (a *App) PreprocessTime(item int) sim.Time { return 0 }

// CompareTime implements core.Application.
func (a *App) CompareTime(i, j int) sim.Time {
	return sim.Millis(stats.HashSample(a.cmpDist, a.seed, uint64(i), uint64(j)))
}

// PostprocessTime implements core.Application.
func (a *App) PostprocessTime(i, j int) sim.Time { return 0 }

// MeanCosts returns the Table 1 mean stage durations.
func (a *App) MeanCosts() (parse, pre, cmp, post sim.Time, fileBytes float64) {
	return sim.Millis(27.4), 0, sim.Millis(564.3), 0, MeanFileBytes
}
