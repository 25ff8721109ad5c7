package phylo

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
		return nil, fmt.Errorf("phylo: item %d out of range", item)
	}
	return d.Files[item], nil
}

// RealParams configures the real-kernel application: synthetic proteomes
// evolved from a set of ancestor genomes, so the reconstructed tree has a
// known ground truth.
type RealParams struct {
	// N is the number of species.
	N int
	// Groups is the number of ancestral clades; species are assigned
	// round-robin, so species i belongs to clade i mod Groups.
	Groups int
	Seed   uint64
}

// The shape of the synthetic proteomes and of their composition vectors.
const (
	// proteins is the number of proteins per proteome.
	proteins = 20
	// proteinLen is the mean protein length (amino acids).
	proteinLen = 300
	// mutationRate is the per-residue substitution probability applied
	// when deriving a species from its clade ancestor.
	mutationRate = 0.05
	// cvOrder is the composition-vector string length K.
	cvOrder = 4
)

func (p *RealParams) fillDefaults() {
	if p.N == 0 {
		p.N = 12
	}
	if p.Groups == 0 {
		p.Groups = 3
	}
}

// RealApp runs the actual composition-vector pipeline. It implements
// core.Application and core.Computer.
type RealApp struct {
	*App
	params RealParams
	ds     *MemDataset
}

// NewReal builds the real application over synthetic proteomes generated
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

// Clade returns the ground-truth clade of a species.
func (a *RealApp) Clade(item int) int { return item % a.params.Groups }

// K returns the composition-vector order.
func (a *RealApp) K() int { return cvOrder }

// generateDataset synthesizes proteome files: Groups random ancestor
// proteomes, each species a mutated copy of its clade's ancestor.
func generateDataset(p RealParams) (*MemDataset, error) {
	p.fillDefaults()
	ancestors := make([][]string, p.Groups)
	for g := range ancestors {
		rng := stats.HashRNG(p.Seed, uint64(g), 0xa9ce5)
		ancestors[g] = randomProteome(rng, proteins, proteinLen)
	}
	ds := &MemDataset{Files: make([][]byte, p.N)}
	for i := 0; i < p.N; i++ {
		rng := stats.HashRNG(p.Seed, uint64(i), 0x59ec1e5)
		proteome := mutateProteome(ancestors[i%p.Groups], mutationRate, rng)
		raw, err := encodeFASTA(fmt.Sprintf("species%d", i), proteome)
		if err != nil {
			return nil, err
		}
		ds.Files[i] = raw
	}
	return ds, nil
}

func randomProteome(rng *stats.RNG, proteins, meanLen int) []string {
	out := make([]string, proteins)
	for i := range out {
		length := meanLen/2 + rng.Intn(meanLen)
		seq := make([]byte, length)
		for j := range seq {
			seq[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(seq)
	}
	return out
}

func mutateProteome(ancestor []string, rate float64, rng *stats.RNG) []string {
	out := make([]string, len(ancestor))
	for i, s := range ancestor {
		seq := []byte(s)
		for j := range seq {
			if rng.Float64() < rate {
				seq[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		out[i] = string(seq)
	}
	return out
}

// LoadItem implements core.Computer: decompress the FASTA file and build
// the composition vector (parse + pre-process stages).
func (a *RealApp) LoadItem(item int) (interface{}, error) {
	raw, err := a.ds.File(item)
	if err != nil {
		return nil, err
	}
	seqs, err := decodeFASTA(raw)
	if err != nil {
		return nil, fmt.Errorf("item %d: %w", item, err)
	}
	return buildCV(seqs, cvOrder)
}

// ComparePair implements core.Computer: the CV correlation distance.
func (a *RealApp) ComparePair(i, j int, x, y interface{}) (interface{}, error) {
	c, err := correlation(x.(*CV), y.(*CV))
	if err != nil {
		return nil, err
	}
	return distance(c), nil
}
