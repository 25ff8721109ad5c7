// Package forensics implements the paper's digital-forensics application
// (§5.1): common-source camera identification through Photo Response
// Non-Uniformity (PRNU) noise patterns.
//
// The package provides two layers. App is the cost model calibrated from
// Table 1 (parse 130.8±14.11 ms, pre-process 20.5±0.02 ms, comparison
// 1.1±0.01 ms on the TitanX Maxwell; 38.1 MB slots), used by the benchmark
// harness. RealApp additionally implements the actual pipeline in pure Go
// on synthetic data — image decoding, PRNU extraction by denoising, and
// Normalized Cross Correlation — replacing the paper's libjpeg + CUDA
// kernels with behaviour-equivalent substitutes.
package forensics

import (
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Table 1 constants (reference GPU: NVIDIA TitanX Maxwell).
const (
	// DefaultN is the Dresden-database image count used in the paper.
	DefaultN = 4980
	// SlotBytes is the preprocessed PRNU pattern size (38.1 MB).
	SlotBytes = 38100000
	// MeanFileBytes is the average on-disk JPEG size (19.4 GB / 4980).
	MeanFileBytes = 3900000
)

// Params configures the cost-model application.
type Params struct {
	// N is the number of images; 0 means DefaultN.
	N int
	// Seed drives the per-item and per-pair duration draws.
	Seed uint64
}

// App is the forensics cost model. It implements core.Application.
type App struct {
	n    int
	seed uint64

	parseDist stats.Dist
	preDist   stats.Dist
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
		// The forensics workload is highly regular (Fig. 7): images have
		// equal dimensions, so all stages have tiny variance.
		parseDist: stats.Normal{Mu: 130.8, Sigma: 14.11, Min: 1},
		preDist:   stats.Normal{Mu: 20.5, Sigma: 0.02, Min: 0.1},
		cmpDist:   stats.Normal{Mu: 1.1, Sigma: 0.01, Min: 0.1},
		fileDist:  stats.Normal{Mu: MeanFileBytes, Sigma: 400000, Min: 1 << 20},
	}
}

// Name implements core.Application.
func (a *App) Name() string { return "forensics" }

// NumItems implements core.Application.
func (a *App) NumItems() int { return a.n }

// FileSize implements core.Application.
func (a *App) FileSize(item int) int64 {
	return int64(stats.HashSample(a.fileDist, a.seed, uint64(item), 0xf11e))
}

// ItemSize implements core.Application.
func (a *App) ItemSize() int64 { return SlotBytes }

// ResultSize implements core.Application.
func (a *App) ResultSize() int64 { return 8 }

// ParseTime implements core.Application.
func (a *App) ParseTime(item int) sim.Time {
	return sim.Millis(stats.HashSample(a.parseDist, a.seed, uint64(item), 0x9a45e))
}

// PreprocessTime implements core.Application.
func (a *App) PreprocessTime(item int) sim.Time {
	return sim.Millis(stats.HashSample(a.preDist, a.seed, uint64(item), 0x94e))
}

// CompareTime implements core.Application.
func (a *App) CompareTime(i, j int) sim.Time {
	return sim.Millis(stats.HashSample(a.cmpDist, a.seed, uint64(i), uint64(j)))
}

// PostprocessTime implements core.Application. Post-processing only
// thresholds the correlation score; Table 1 reports 0 ms.
func (a *App) PostprocessTime(i, j int) sim.Time { return 0 }

// MeanCosts returns the Table 1 mean stage durations for the performance
// model.
func (a *App) MeanCosts() (parse, pre, cmp, post sim.Time, fileBytes float64) {
	return sim.Millis(130.8), sim.Millis(20.5), sim.Millis(1.1), 0, MeanFileBytes
}
