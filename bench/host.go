package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS so a commit measured on a wide machine and one
// measured on a narrow one differ by at most this much parallelism.
const maxProcs = 4

// provenance is what a result needs beside it to be compared with
// another: where and on what it was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func pinProcs() int {
	n := runtime.NumCPU()
	if n > maxProcs {
		n = maxProcs
	}
	runtime.GOMAXPROCS(n)
	return n
}

// buildCommit reads the VCS revision the toolchain stamped into the
// binary; a checkout without git history has none.
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSteps is the length of the calibration walk.
const calibSteps = 1 << 20

var calibSink uint32

// calibrate times a fixed walk of steps along a single cycle through 2 Mi
// slots (8 MiB; the best of three, in nanoseconds). Each step waits for
// the load before it, so the walk runs at the speed of the memory system,
// which is what the simulator's heaps and maps wait for and what
// neighbours on a shared host take away; a register-only spin reads the
// same through all of that. Taken before and after a workload, two
// readings that differ say the host changed speed underneath the
// measurement; compared across runs, they say which runs met a slow host.
//
// The table is mapped afresh and unmapped again on every call: both
// readings then walk newly faulted pages, and the collector's heap goal
// and the workload's own memory high-water mark never see it.
func calibrate(steps int) (float64, error) {
	const slots = 1 << 21
	table, err := syscall.Mmap(-1, 0, 4*slots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("calibration table: %w", err)
	}
	for i := uint32(0); i < slots; i++ {
		// A full-period linear congruence: one cycle over all slots.
		binary.LittleEndian.PutUint32(table[4*i:], (i*1664525+1013904223)%slots)
	}
	best := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		x := uint32(r)
		start := time.Now()
		for i := 0; i < steps; i++ {
			x = binary.LittleEndian.Uint32(table[4*x:])
		}
		if d := time.Since(start); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds()), syscall.Munmap(table)
}

// disturbedBy is how far the two calibration readings may differ.
const disturbedBy = 0.10

func disturbed(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi > lo*(1+disturbedBy)
}
