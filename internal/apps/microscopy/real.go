package microscopy

import (
	"fmt"

	"rocket/internal/stats"
)

// MemDataset is an in-memory dataset.
type MemDataset struct {
	Files [][]byte
	// Thetas are the ground-truth orientations of the generated particles.
	Thetas []float64
}

// File returns the raw bytes of item's input file.
func (d *MemDataset) File(item int) ([]byte, error) {
	if item < 0 || item >= len(d.Files) {
		return nil, fmt.Errorf("microscopy: item %d out of range", item)
	}
	return d.Files[item], nil
}

// RealParams configures the real-kernel application.
type RealParams struct {
	// N is the number of particles.
	N int
	// Noise is the localization noise standard deviation.
	Noise float64
	// LabelEff is the labeling efficiency (detection probability).
	LabelEff float64
	// Sigma is the GMM kernel width used by the registration.
	Sigma float64
	// CoarseSteps is the number of coarse rotation-scan angles.
	CoarseSteps int
	Seed        uint64
}

func (p *RealParams) fillDefaults() {
	if p.N == 0 {
		p.N = 8
	}
	if p.Noise == 0 {
		p.Noise = 2
	}
	if p.LabelEff == 0 {
		p.LabelEff = 0.7
	}
	if p.Sigma == 0 {
		p.Sigma = 6
	}
	if p.CoarseSteps == 0 {
		p.CoarseSteps = 24
	}
}

// RealApp runs the actual registration pipeline. It implements
// core.Application and core.Computer.
type RealApp struct {
	*App
	params RealParams
	ds     *MemDataset
}

// NewReal builds the real application over synthetic particles generated
// in memory.
func NewReal(p RealParams) (*RealApp, error) {
	p.fillDefaults()
	a := &RealApp{App: New(Params{N: p.N, Seed: p.Seed}), params: p}
	ds, err := generateDataset(p)
	if err != nil {
		return nil, err
	}
	a.ds = ds
	return a, nil
}

// generateDataset synthesizes particle files from the default template.
func generateDataset(p RealParams) (*MemDataset, error) {
	p.fillDefaults()
	tpl := defaultTemplate()
	ds := &MemDataset{Files: make([][]byte, p.N), Thetas: make([]float64, p.N)}
	for i := 0; i < p.N; i++ {
		rng := stats.HashRNG(p.Seed, uint64(i), 0x9a671c1e)
		particle, theta := tpl.Observe(rng, i, p.Noise, p.LabelEff)
		raw, err := encodeJSON(particle)
		if err != nil {
			return nil, err
		}
		ds.Files[i] = raw
		ds.Thetas[i] = theta
	}
	return ds, nil
}

// Theta returns the ground-truth orientation of a generated particle.
func (a *RealApp) Theta(item int) float64 { return a.ds.Thetas[item] }

// LoadItem implements core.Computer: parse the particle JSON. The
// application has no pre-processing stage (§5.3).
func (a *RealApp) LoadItem(item int) (interface{}, error) {
	raw, err := a.ds.File(item)
	if err != nil {
		return nil, err
	}
	p, err := decodeJSON(raw)
	if err != nil {
		return nil, fmt.Errorf("item %d: %w", item, err)
	}
	return p, nil
}

// ComparePair implements core.Computer: register the two particles and
// return the Registration outcome.
func (a *RealApp) ComparePair(i, j int, x, y interface{}) (interface{}, error) {
	return register(x.(*Particle), y.(*Particle), a.params.Sigma, a.params.CoarseSteps), nil
}
