package phylo

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Amino-acid alphabet of the composition-vector method.
const alphabet = "ACDEFGHIKLMNPQRSTVWY"

// alphaIndex maps an amino-acid letter to its index, -1 for anything else.
var alphaIndex [256]int8

func init() {
	for i := range alphaIndex {
		alphaIndex[i] = -1
	}
	for i := 0; i < len(alphabet); i++ {
		alphaIndex[alphabet[i]] = int8(i)
	}
}

// encodeFASTA serializes protein sequences into a deflate-compressed FASTA
// file, the input format of the application (§5.2: "files are stored in
// compressed FASTA format").
func encodeFASTA(name string, seqs []string) ([]byte, error) {
	var plain bytes.Buffer
	for i, s := range seqs {
		fmt.Fprintf(&plain, ">%s|protein%d\n", name, i)
		for len(s) > 60 {
			plain.WriteString(s[:60])
			plain.WriteByte('\n')
			s = s[60:]
		}
		plain.WriteString(s)
		plain.WriteByte('\n')
	}
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(plain.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// decodeFASTA decompresses and parses a file produced by encodeFASTA,
// returning the protein sequences.
func decodeFASTA(raw []byte) ([]string, error) {
	zr := flate.NewReader(bytes.NewReader(raw))
	defer zr.Close()
	plain, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("phylo: decompress: %w", err)
	}
	var seqs []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			seqs = append(seqs, cur.String())
			cur.Reset()
		}
	}
	for _, line := range strings.Split(string(plain), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line[0] == '>' {
			flush()
			continue
		}
		cur.WriteString(line)
	}
	flush()
	if len(seqs) == 0 {
		return nil, fmt.Errorf("phylo: no sequences in FASTA input")
	}
	return seqs, nil
}

// CV is a sparse composition vector: parallel slices of k-string codes
// (base-20 encoded, ascending) and component values.
type CV struct {
	K     int
	Keys  []uint64
	Vals  []float32
	normV float64
}

// Len returns the number of non-zero components.
func (v *CV) Len() int { return len(v.Keys) }

// countK counts k-string occurrences over all sequences.
func countK(seqs []string, k int) (map[uint64]float64, float64) {
	counts := make(map[uint64]float64)
	var total float64
	mod := pow20(k - 1)
	for _, s := range seqs {
		var code uint64
		run := 0 // length of current valid suffix
		for i := 0; i < len(s); i++ {
			idx := alphaIndex[s[i]]
			if idx < 0 {
				run, code = 0, 0
				continue
			}
			code = (code%mod)*20 + uint64(idx)
			if run < k {
				run++
			}
			if run == k {
				counts[code]++
				total++
			}
		}
	}
	return counts, total
}

func pow20(k int) uint64 {
	v := uint64(1)
	for i := 0; i < k; i++ {
		v *= 20
	}
	return v
}

// buildCV computes the composition vector of order k following Qi et al.:
// the relative deviation a(s) = (f(s) - f0(s)) / f0(s) of each observed
// k-string frequency f from its Markov-model prediction
// f0(a1..ak) = f(a1..a_{k-1}) f(a2..ak) / f(a2..a_{k-1}).
func buildCV(seqs []string, k int) (*CV, error) {
	if k < 3 {
		return nil, fmt.Errorf("phylo: k must be >= 3, got %d", k)
	}
	fk, nk := countK(seqs, k)
	if nk == 0 {
		return nil, fmt.Errorf("phylo: sequences shorter than k=%d", k)
	}
	fk1, nk1 := countK(seqs, k-1)
	fk2, nk2 := countK(seqs, k-2)
	div := pow20(k - 1)
	keys := make([]uint64, 0, len(fk))
	for code := range fk {
		keys = append(keys, code)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cv := &CV{K: k, Keys: keys, Vals: make([]float32, len(keys))}
	var norm float64
	for i, code := range keys {
		prefix := code / 20   // a1..a_{k-1}
		suffix := code % div  // a2..ak
		middle := suffix / 20 // a2..a_{k-1}
		f := fk[code] / nk
		p := fk1[prefix] / nk1
		s := fk1[suffix] / nk1
		m := fk2[middle] / nk2
		var a float64
		if p > 0 && s > 0 && m > 0 {
			f0 := p * s / m
			if f0 > 0 {
				a = (f - f0) / f0
			}
		}
		cv.Vals[i] = float32(a)
		norm += a * a
	}
	cv.normV = math.Sqrt(norm)
	return cv, nil
}

// correlation computes the cosine similarity C(A, B) between two sparse
// composition vectors by merging their sorted key lists (the "dot product
// between two sparse vectors" of §5.2).
func correlation(a, b *CV) (float64, error) {
	if a.K != b.K {
		return 0, fmt.Errorf("phylo: comparing CVs of different k (%d vs %d)", a.K, b.K)
	}
	if a.normV == 0 || b.normV == 0 {
		return 0, nil
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		switch {
		case a.Keys[i] < b.Keys[j]:
			i++
		case a.Keys[i] > b.Keys[j]:
			j++
		default:
			dot += float64(a.Vals[i]) * float64(b.Vals[j])
			i++
			j++
		}
	}
	return dot / (a.normV * b.normV), nil
}

// distance converts a correlation into the CV distance D = (1 - C) / 2,
// which lies in [0, 1].
func distance(c float64) float64 { return (1 - c) / 2 }
