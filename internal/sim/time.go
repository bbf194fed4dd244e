// Package sim implements a deterministic discrete-event simulator with
// cooperative, goroutine-backed processes.
//
// The simulator is the hardware substrate of this repository: it stands in
// for the 128-node Grid'5000 cluster used in the paper. Virtual time is
// advanced by an event queue; exactly one goroutine (either the engine or a
// single process) runs at any moment, so simulations are deterministic and
// reproducible bit-for-bit.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a virtual Time.
func Seconds(s float64) Time { return Time(s * 1e9) }

// CheckSeconds returns an error naming the input and its value unless
// Seconds converts s faithfully: s must be finite, non-negative and below
// Time's range. Inputs from outside the program are checked with it before
// they are converted; past the range the conversion's result is undefined.
func CheckSeconds(name string, s float64) error {
	if s >= 0 && s*1e9 < 1<<63 {
		return nil
	}
	return fmt.Errorf("%s %g s is not a virtual time: it must be finite, non-negative and under %.4g s",
		name, s, float64(1<<63)/1e9)
}

// Micros converts a floating-point number of microseconds to a virtual Time.
func Micros(us float64) Time { return Time(us * 1e3) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with a unit suffix for human consumption.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
