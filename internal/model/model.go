// Package model implements the paper's performance model (§6.1,
// equations 1-5): lower bounds on run time for a hypothetical system with
// perfect data reuse (R = 1), infinite I/O bandwidth, and perfectly
// overlapped processing, plus the derived system-efficiency metric.
package model

import (
	"rocket/internal/pairs"
	"rocket/internal/sim"
)

// Costs are the mean per-stage durations of an application on the
// reference GPU, matching Table 1.
type Costs struct {
	Parse      sim.Time // CPU, per item
	Preprocess sim.Time // GPU, per item
	Compare    sim.Time // GPU, per pair
	Post       sim.Time // CPU, per pair
	// FileBytes is the mean on-disk file size, for the I/O estimate.
	FileBytes float64
}

// tGPU returns equation (1): total GPU processing time for n items with
// data-reuse factor R on a single reference GPU.
func tGPU(c Costs, n int, r float64) sim.Time {
	loads := r * float64(n)
	return sim.Time(loads*float64(c.Preprocess)) +
		sim.Time(float64(pairs.TotalPairs(n))*float64(c.Compare))
}

// tCPU returns equation (2): total CPU processing time.
func tCPU(c Costs, n int, r float64) sim.Time {
	loads := r * float64(n)
	return sim.Time(loads*float64(c.Parse)) +
		sim.Time(float64(pairs.TotalPairs(n))*float64(c.Post))
}

// tIO returns equation (3): estimated I/O time given an average storage
// bandwidth in bytes/second.
func tIO(c Costs, n int, r float64, bandwidth float64) sim.Time {
	if bandwidth <= 0 {
		return 0
	}
	bytes := r * float64(n) * c.FileBytes
	return sim.Seconds(bytes / bandwidth)
}

// Tmin returns equation (4): the lower bound on run time assuming perfect
// reuse (R = 1), infinite I/O bandwidth, and GPU-dominated processing, on
// one reference GPU.
func Tmin(c Costs, n int) sim.Time {
	return tGPU(c, n, 1)
}

// tminOn returns the lower bound on a platform with the given total
// relative GPU speed (sum of per-device speeds, reference GPU = 1.0). This
// generalizes Tmin/p to heterogeneous platforms: p identical reference
// GPUs have totalSpeed = p.
func tminOn(c Costs, n int, totalSpeed float64) sim.Time {
	if totalSpeed <= 0 {
		return 0
	}
	return sim.Time(float64(Tmin(c, n)) / totalSpeed)
}

// Efficiency returns equation (5): the ratio of the modeled lower bound on
// the given platform to the measured run time. Values are in (0, 1] for
// systems respecting the bound; super-linear effects can push measured
// runs of larger platforms above smaller ones but never above the bound.
func Efficiency(c Costs, n int, totalSpeed float64, measured sim.Time) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(tminOn(c, n, totalSpeed)) / float64(measured)
}

// speedup returns t1/tp.
func speedup(t1, tp sim.Time) float64 {
	if tp <= 0 {
		return 0
	}
	return float64(t1) / float64(tp)
}
