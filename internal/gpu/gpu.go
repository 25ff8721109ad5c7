// Package gpu models the GPU devices of the evaluation platforms. Rocket
// treats kernels as black boxes (paper §5), so a device is fully described
// by its relative compute speed, usable memory, and PCIe copy bandwidth.
// Kernel and transfer durations are charged on simulated resources: one
// compute queue plus dedicated host-to-device and device-to-host copy
// engines per device, matching the paper's one-thread-per-engine design
// (§4.3).
package gpu

import (
	"fmt"

	"rocket/internal/sim"
)

// Model describes a GPU product. Speed is relative throughput with the
// NVIDIA TitanX Maxwell (the paper's single-node baseline) at 1.0.
type Model struct {
	Name       string
	Generation string
	// Speed scales kernel durations: duration = base / Speed.
	Speed float64
	// MemBytes is usable device memory for the level-1 cache.
	MemBytes int64
	// PCIeBW is the copy-engine bandwidth in bytes/second (each direction
	// has its own engine).
	PCIeBW float64
}

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

const defaultPCIe = 12e9 // ~PCIe 3.0 x16 effective

// The GPU models used across the paper's platforms (§6.2, §6.5, §6.6).
// Speeds are set from relative single-precision throughput of the products.
var (
	TitanXMaxwell = Model{Name: "TitanX-Maxwell", Generation: "Maxwell", Speed: 1.00, MemBytes: 11 * GiB, PCIeBW: defaultPCIe}
	K20m          = Model{Name: "K20m", Generation: "Kepler", Speed: 0.45, MemBytes: 4 * GiB, PCIeBW: defaultPCIe}
	GTXTitan      = Model{Name: "GTX-Titan", Generation: "Kepler", Speed: 0.55, MemBytes: 5 * GiB, PCIeBW: defaultPCIe}
	GTX980        = Model{Name: "GTX980", Generation: "Maxwell", Speed: 0.70, MemBytes: 4 * GiB, PCIeBW: defaultPCIe}
	TitanXPascal  = Model{Name: "TitanX-Pascal", Generation: "Pascal", Speed: 1.65, MemBytes: 11 * GiB, PCIeBW: defaultPCIe}
	RTX2080Ti     = Model{Name: "RTX2080Ti", Generation: "Turing", Speed: 2.05, MemBytes: 10 * GiB, PCIeBW: defaultPCIe}
	K40m          = Model{Name: "K40m", Generation: "Kepler", Speed: 0.65, MemBytes: 11 * GiB, PCIeBW: defaultPCIe}
)

// Device is one simulated GPU installed in a node.
type Device struct {
	Model
	// ID names the device for traces, e.g. "node3/gpu1".
	ID string
	// Compute serializes kernel launches (a single CUDA stream).
	Compute *sim.Resource
	// H2D and D2H are the two copy engines.
	H2D *sim.Resource
	D2H *sim.Resource
	// throttle, when set, reports the current straggler factor (>= 1)
	// multiplying kernel durations; nil means full speed. PCIe copies are
	// unaffected (thermal throttling slows the SMs, not the bus).
	throttle func() float64
}

// SetThrottle installs a straggler hook: every kernel launched afterwards
// takes fn() times its nominal duration (fn must return >= 1; values below
// are clamped). Passing nil restores full speed. Fault injection uses this
// to model per-device slowdowns over windows of virtual time.
func (d *Device) SetThrottle(fn func() float64) { d.throttle = fn }

// slowdown returns the current straggler factor.
func (d *Device) slowdown() float64 {
	if d.throttle == nil {
		return 1
	}
	if f := d.throttle(); f > 1 {
		return f
	}
	return 1
}

// New returns a device with fresh resources.
func New(id string, m Model) *Device {
	if m.Speed <= 0 {
		panic(fmt.Sprintf("gpu: model %q has non-positive speed", m.Name))
	}
	return &Device{
		Model:   m,
		ID:      id,
		Compute: sim.NewResource(id+"/compute", 1),
		H2D:     sim.NewResource(id+"/h2d", 1),
		D2H:     sim.NewResource(id+"/d2h", 1),
	}
}

// kernelTime converts a baseline kernel duration (measured on the TitanX
// Maxwell) into this device's duration.
func (d *Device) kernelTime(base sim.Time) sim.Time {
	return sim.Time(float64(base) / d.Speed)
}

// TransferTime returns the PCIe copy duration for size bytes.
func (d *Device) TransferTime(size int64) sim.Time {
	return sim.Seconds(float64(size) / d.PCIeBW)
}

// LaunchKernel occupies the compute queue for a baseline duration scaled
// by the device speed, then calls fn with the grant time (the occupancy
// ran [start, e.Now()]). Like a real asynchronous kernel launch it never
// blocks the caller: queueing, execution, and completion run as a
// zero-allocation callback chain in the simulator, with no goroutine per
// launch. fn must not block.
func (d *Device) LaunchKernel(e *sim.Env, base sim.Time, fn func(start sim.Time)) {
	dur := d.kernelTime(base)
	if f := d.slowdown(); f != 1 {
		dur = sim.Time(float64(dur) * f)
	}
	d.Compute.UseFunc(e, dur, fn)
}

// CopyH2D occupies the host-to-device copy engine for size bytes, then
// calls fn with the grant time. See LaunchKernel.
func (d *Device) CopyH2D(e *sim.Env, size int64, fn func(start sim.Time)) {
	d.H2D.UseFunc(e, d.TransferTime(size), fn)
}

// CopyD2H occupies the device-to-host copy engine for size bytes, then
// calls fn with the grant time. See LaunchKernel.
func (d *Device) CopyD2H(e *sim.Env, size int64, fn func(start sim.Time)) {
	d.D2H.UseFunc(e, d.TransferTime(size), fn)
}
