package obs

import (
	"math/bits"
	"sort"
)

// Histogram is a log-bucketed (HDR-style) distribution of non-negative
// int64 samples. Values below 32 land in exact unit buckets; above that,
// each power of two is split into 32 sub-buckets, bounding the relative
// quantile error at ~3% while keeping the bucket count small enough to
// export on /metrics. All state is integer, so merging and bucket
// extraction are deterministic.
//
// The zero value is ready to use. Histogram is not safe for concurrent
// use; callers (sched.Online) guard it with their own mutex.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    int64
	max    int64
}

// histSub is the number of sub-buckets per power of two above the exact
// range. The exact range covers [0, histSub) with one bucket per value.
const histSub = 32

// histBucket maps a sample to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ 5 here
	sub := int(v>>(uint(exp)-5)) - histSub
	return histSub + (exp-5)*histSub + sub
}

// histUpper returns the largest value that maps into bucket i (the
// bucket's inclusive upper bound — Prometheus `le`).
func histUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := (i-histSub)/histSub + 5
	sub := (i - histSub) % histSub
	return (int64(histSub+sub+1))<<(uint(exp)-5) - 1
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := histBucket(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Merge adds o's samples into h. The max is the max of both.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{count: h.count, sum: h.sum, max: h.max}
	c.counts = append([]uint64(nil), h.counts...)
	return c
}

// Bucket is one cumulative exposition bucket: Count samples ≤ Le.
type Bucket struct {
	Le    int64
	Count uint64
}

// Buckets returns the non-empty buckets in cumulative (Prometheus) form,
// ordered by upper bound. Empty buckets are elided — the cumulative
// counts are unaffected and the exposition stays compact.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if c > 0 {
			out = append(out, Bucket{Le: histUpper(i), Count: cum})
		}
	}
	return out
}

// sortSpans sorts spans by the canonical export key.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Compare(spans[j]) < 0 })
}
