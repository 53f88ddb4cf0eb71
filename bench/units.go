package main

import (
	"fmt"
	"time"
)

// The benchmark does its arithmetic in unit-carrying types so a rate can
// never be added to a size or a count divided by the wrong clock. JSON output
// carries bare numbers; there the unit is part of the metric's name.

// ByteCount is a size in bytes.
type ByteCount int64

// Binary size units, matching how the workloads name their message shapes
// (64 KB = 65536 bytes = 55 packets at MSS 1200).
const (
	Byte ByteCount = 1
	KiB            = 1024 * Byte
	MiB            = 1024 * KiB
)

// String renders the size in the largest binary unit that divides it evenly
// enough to stay short: 64B, 4KB, 1MB.
func (b ByteCount) String() string {
	switch {
	case b >= MiB && b%MiB == 0:
		return fmt.Sprintf("%dMB", b/MiB)
	case b >= KiB && b%KiB == 0:
		return fmt.Sprintf("%dKB", b/KiB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// MB is the size in decimal megabytes, the unit of live_heap_MB.
func (b ByteCount) MB() float64 { return float64(b) / 1e6 }

// BytesPerSecond is a payload rate.
type BytesPerSecond float64

// BandwidthFromDelta is the rate that moves b bytes in d.
func BandwidthFromDelta(b ByteCount, d time.Duration) BytesPerSecond {
	if d <= 0 {
		return 0
	}
	return BytesPerSecond(float64(b) / d.Seconds())
}

// MBps is the rate in decimal megabytes per second, the unit of goodput_MBps.
func (r BytesPerSecond) MBps() float64 { return float64(r) / 1e6 }

func (r BytesPerSecond) String() string { return fmt.Sprintf("%.1f MB/s", r.MBps()) }

// PerSecond is an event rate (messages, packets, simulated events).
type PerSecond float64

// RateFromDelta is the rate of n events in d.
func RateFromDelta(n int64, d time.Duration) PerSecond {
	if d <= 0 {
		return 0
	}
	return PerSecond(float64(n) / d.Seconds())
}

// Interval is the mean time between events at this rate.
func (r PerSecond) Interval() Nanos {
	if r <= 0 {
		return 0
	}
	return Nanos(1e9 / float64(r))
}

func (r PerSecond) String() string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2f M/s", float64(r)/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1f k/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.1f /s", float64(r))
	}
}

// Nanos is a mean or percentile duration in nanoseconds. It is a float, not
// a time.Duration, because per-operation means are routinely fractional.
type Nanos float64

// NanosOf converts a measured duration.
func NanosOf(d time.Duration) Nanos { return Nanos(d) }

// NanosPer is the mean cost of one of n operations that together took d.
func NanosPer(d time.Duration, n int64) Nanos {
	if n <= 0 {
		return 0
	}
	return Nanos(float64(d) / float64(n))
}

// Micros and Millis convert for metrics whose names end in _us and _ms.
func (n Nanos) Micros() float64 { return float64(n) / 1e3 }
func (n Nanos) Millis() float64 { return float64(n) / 1e6 }

func (n Nanos) String() string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.2fus", float64(n)/1e3)
	default:
		return fmt.Sprintf("%.1fns", float64(n))
	}
}
