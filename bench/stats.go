package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarizes one timing's samples: the median is what a metric
// reports, the rest says how far to trust it.
type dist struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := sortedCopy(samples)
	return dist{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

func median(samples []float64) float64 { return summarize(samples).Median }

func (d dist) String() string {
	return fmt.Sprintf("median %.4g  [min %.4g  q1 %.4g  q3 %.4g  max %.4g]  n=%d",
		d.Median, d.Min, d.Q1, d.Q3, d.Max, d.N)
}

// minBeyond is how many samples must lie beyond a latency percentile
// before it is reported: with fewer, the figure is one or two outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank rule, and refuses when fewer than minBeyond samples lie
// beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	return sortedCopy(samples)[rank-1], nil
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
