package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates online count/mean/variance/min/max of a stream of
// observations (Welford's algorithm), without storing the samples.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 if fewer than 2 samples).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Sum returns mean * n.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// String formats as "mean±std (n=...)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g±%.3g (n=%d)", s.Mean(), s.Std(), s.n)
}

// Histogram is a fixed-range linear-bin histogram used to reproduce the
// comparison-time histograms of Fig. 7.
type Histogram struct {
	Lo, Hi   float64
	Counts   []uint64
	over     uint64
	nSamples uint64
}

// NewHistogram returns a histogram over [lo, hi) with the given number of
// bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g, %g) x%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one sample. Samples below Lo count only toward N; samples
// at or above Hi count toward N and the overflow row of Render.
func (h *Histogram) Add(x float64) {
	h.nSamples++
	switch {
	case x < h.Lo:
	case x >= h.Hi:
		h.over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// N returns the total number of samples, including out-of-range ones.
func (h *Histogram) N() uint64 { return h.nSamples }

// binCenter returns the midpoint of bin i.
func (h *Histogram) binCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Render draws a textual histogram with the given width in characters,
// one row per bin, matching the layout used in EXPERIMENTS.md.
func (h *Histogram) Render(width int) string {
	var peak uint64
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if peak > 0 {
			bar = int(float64(width) * float64(c) / float64(peak))
		}
		fmt.Fprintf(&b, "%10.3g | %-*s %d\n", h.binCenter(i), width, strings.Repeat("#", bar), c)
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "%10s | %d overflow\n", ">", h.over)
	}
	return b.String()
}

// TimeSeries accumulates (t, value) points bucketed by a fixed interval,
// used for the rolling-throughput plot of Fig. 14.
type TimeSeries struct {
	Interval float64 // bucket width in seconds
	Buckets  []float64
}

// NewTimeSeries returns a series with the given bucket width (seconds).
func NewTimeSeries(interval float64) *TimeSeries {
	if interval <= 0 {
		panic("stats: TimeSeries interval must be positive")
	}
	return &TimeSeries{Interval: interval}
}

// Add accumulates v into the bucket containing time t (seconds).
func (ts *TimeSeries) Add(t, v float64) {
	if t < 0 {
		return
	}
	i := int(t / ts.Interval)
	for len(ts.Buckets) <= i {
		ts.Buckets = append(ts.Buckets, 0)
	}
	ts.Buckets[i] += v
}

// Rate returns the per-second rate for each bucket.
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.Buckets))
	for i, v := range ts.Buckets {
		out[i] = v / ts.Interval
	}
	return out
}
