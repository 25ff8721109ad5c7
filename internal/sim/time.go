// Package sim implements a deterministic discrete-event simulation (DES)
// kernel used as the substrate for the simulated cluster, GPUs, network,
// and storage on which the Rocket runtime executes.
//
// The engine is single-threaded: simulated activities are callback chains
// that the scheduler runs one event at a time, each registering its
// continuation with virtual time (At/After, or AtArg when one bound
// continuation serves many records), a Signal, a Resource, or a typed
// Mailbox instead of blocking. There are no simulated goroutines, and
// every queue is a Ring: the steady state of a run allocates nothing.
// With all randomness injected from outside, a simulation with the same
// inputs replays the exact same event order, which the test suite verifies.
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in nanoseconds.
// Virtual time starts at 0 when an Env is created and only moves forward.
type Time int64

// Common durations, mirroring time.Duration constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Millis returns f milliseconds of virtual time, rounding to the nearest
// nanosecond.
func Millis(f float64) Time { return Time(f * float64(Millisecond)) }

// Micros returns f microseconds of virtual time.
func Micros(f float64) Time { return Time(f * float64(Microsecond)) }

// Seconds returns f seconds of virtual time.
func Seconds(f float64) Time { return Time(f * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit, e.g. "1.500ms" or "2.250h".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t < Minute:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t < Hour:
		return fmt.Sprintf("%.3fm", float64(t)/float64(Minute))
	default:
		return fmt.Sprintf("%.3fh", float64(t)/float64(Hour))
	}
}
