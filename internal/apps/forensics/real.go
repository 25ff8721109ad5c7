package forensics

import (
	"fmt"

	"rocket/internal/stats"
)

// MemDataset is an in-memory dataset.
type MemDataset struct {
	Files [][]byte
}

// File returns the raw bytes of item's input file.
func (d *MemDataset) File(item int) ([]byte, error) {
	if item < 0 || item >= len(d.Files) {
		return nil, fmt.Errorf("forensics: item %d out of range", item)
	}
	return d.Files[item], nil
}

// RealParams configures the real-kernel application.
type RealParams struct {
	// N is the number of images.
	N int
	// Cameras is the number of distinct source cameras; images are
	// assigned round-robin.
	Cameras int
	// Width and Height are the image dimensions (the paper uses
	// 3648x2736; the synthetic default is 128x96 so examples run fast).
	Width, Height int
	// Strength is the PRNU pattern standard deviation.
	Strength float64
	Seed     uint64
}

func (p *RealParams) fillDefaults() {
	if p.N == 0 {
		p.N = 20
	}
	if p.Cameras == 0 {
		p.Cameras = 4
	}
	if p.Width == 0 {
		p.Width = 128
	}
	if p.Height == 0 {
		p.Height = 96
	}
	if p.Strength == 0 {
		p.Strength = 0.05
	}
}

// RealApp runs the actual PRNU pipeline. It implements both
// core.Application (cost model) and core.Computer (real kernels).
type RealApp struct {
	*App
	params RealParams
	ds     *MemDataset
	truth  []int // camera index per item
}

// NewReal builds the real application over a synthetic data set generated
// in memory.
func NewReal(p RealParams) (*RealApp, error) {
	p.fillDefaults()
	a := &RealApp{App: New(Params{N: p.N, Seed: p.Seed}), params: p}
	a.truth = make([]int, p.N)
	for i := range a.truth {
		a.truth[i] = i % p.Cameras
	}
	mem, err := generateDataset(p)
	if err != nil {
		return nil, err
	}
	a.ds = mem
	return a, nil
}

// generateDataset synthesizes the image files for the given parameters.
func generateDataset(p RealParams) (*MemDataset, error) {
	p.fillDefaults()
	cams := make([]*Camera, p.Cameras)
	for c := range cams {
		cams[c] = newCamera(p.Width, p.Height, p.Strength, stats.HashRNG(p.Seed, uint64(c), 0xca).Uint64())
	}
	ds := &MemDataset{Files: make([][]byte, p.N)}
	for i := 0; i < p.N; i++ {
		rng := stats.HashRNG(p.Seed, uint64(i), 0x501)
		img := cams[i%p.Cameras].shoot(rng)
		raw, err := encode(img)
		if err != nil {
			return nil, err
		}
		ds.Files[i] = raw
	}
	return ds, nil
}

// Camera returns the ground-truth camera index of an item.
func (a *RealApp) Camera(item int) int { return a.truth[item] }

// LoadItem implements core.Computer: decode the container and extract the
// PRNU pattern (the parse + pre-process stages of Fig. 2).
func (a *RealApp) LoadItem(item int) (interface{}, error) {
	raw, err := a.ds.File(item)
	if err != nil {
		return nil, err
	}
	img, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("item %d: %w", item, err)
	}
	return extractPattern(img), nil
}

// ComparePair implements core.Computer: Normalized Cross Correlation
// between two PRNU patterns.
func (a *RealApp) ComparePair(i, j int, x, y interface{}) (interface{}, error) {
	return ncc(x.([]float32), y.([]float32))
}
