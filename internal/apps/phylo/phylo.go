// Package phylo implements the paper's bioinformatics application (§5.2):
// alignment-free phylogenetic tree construction with the k-string
// composition-vector (CV) method of Qi, Wang and Hao.
//
// App is the Table-1 cost model (parse 36.9±14.79 ms, pre-process 27.0±
// 4.90 ms, irregular comparisons 2.1±0.79 ms, 145.8 MB slots). RealApp is
// the full pure-Go pipeline: FASTA decompression, composition-vector
// extraction with Markov background subtraction, sparse-vector correlation
// distance, and UPGMA tree construction — replacing the paper's CUDA
// kernels with behaviour-equivalent Go code.
package phylo

import (
	"rocket/internal/sim"
	"rocket/internal/stats"
)

// Table 1 constants.
const (
	// DefaultN is the proteome count of the DAS-5 experiments; the
	// Cartesius experiment (§6.6) uses CartesiusN.
	DefaultN = 2500
	// CartesiusN is the March-2020 UniProt reference-bacteria count.
	CartesiusN = 6818
	// SlotBytes is the composition-vector slot size (145.8 MB; slots are
	// sized for the largest CV).
	SlotBytes = 145800000
	// MeanFileBytes is the average compressed FASTA size (1.8 GB / 2500).
	MeanFileBytes = 720000
)

// Params configures the cost-model application.
type Params struct {
	// N is the number of proteomes; 0 means DefaultN.
	N int
	// Seed drives the duration draws.
	Seed uint64
}

// App is the bioinformatics cost model. It implements core.Application.
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
		// Sparse vectors of wildly varying population make this workload
		// irregular (Fig. 7): log-normal comparison times.
		parseDist: stats.Normal{Mu: 36.9, Sigma: 14.79, Min: 1},
		preDist:   stats.Normal{Mu: 27.0, Sigma: 4.90, Min: 1},
		cmpDist:   stats.NewLogNormal(2.1, 0.79),
		fileDist:  stats.NewLogNormal(MeanFileBytes, 400000),
	}
}

// Name implements core.Application.
func (a *App) Name() string { return "bioinformatics" }

// NumItems implements core.Application.
func (a *App) NumItems() int { return a.n }

// FileSize implements core.Application.
func (a *App) FileSize(item int) int64 {
	s := int64(stats.HashSample(a.fileDist, a.seed, uint64(item), 0xfa57a))
	if s < 1<<10 {
		s = 1 << 10
	}
	return s
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

// PostprocessTime implements core.Application.
func (a *App) PostprocessTime(i, j int) sim.Time { return 0 }

// MeanCosts returns the Table 1 mean stage durations.
func (a *App) MeanCosts() (parse, pre, cmp, post sim.Time, fileBytes float64) {
	return sim.Millis(36.9), sim.Millis(27.0), sim.Millis(2.1), 0, MeanFileBytes
}
