package main

// The host-speed index. On the reference box — a 2-vCPU guest on a shared
// host, no steal time reported, no performance counters exposed — the speed
// of a vCPU moves between 1× and about 0.55× with what the neighbours on the
// physical cores do, in regimes that last from milliseconds to a quarter of
// an hour, and every wall-clock and CPU-time reading of every workload moves
// with it (README, "Noise"). A fixed compute loop, timed between the steps of
// every segment, follows those regimes; the index built from it states step
// times in seconds of the quiet reference box instead of seconds of whatever
// the host was doing. The raw readings are reported beside the indexed ones.

import "time"

const (
	probeIters = 1_000_000
	// probeQuietMs is what one probe takes on the quiet reference box.
	probeQuietMs = 0.70
	// hostSensitivity is the share of a step's time taken to stretch with
	// the probe. Fitted per workload on sets of ten runs, the slope of
	// log(step rate) against log(probe time) is 0.7 to 1.2 in calm and
	// mildly busy quarter hours (probe up to 1.5x quiet), where everything
	// on the core slows alike, and 0.5 to 0.75 in the busiest ones seen
	// (probe at 1.7 to 1.9x), where the probe — pure integer work at the
	// highest rate the core sustains — suffers more from a busy sibling
	// thread than memory stalls, system calls and wake-ups do. 0.7 halves the
	// spread of ten runs in the first kind and over-corrects the second by
	// about a tenth, which still leaves a third of the raw drift (README).
	hostSensitivity = 0.7
	// probeEveryMs is the step time between two probes inside a segment.
	probeEveryMs = 40
)

var probeSink uint64

// probeMs times the probe: six independent integer chains that live in
// registers, so neither the cache footprint nor the allocations of the
// program under test can move it.
func probeMs() float64 {
	t0 := time.Now()
	a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	for i := 0; i < probeIters; i++ {
		a += uint64(i)
		b ^= a
		c += 3
		d ^= c
		e += 7
		f ^= e
	}
	probeSink += a + b + c + d + e + f
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// hostIndex is the factor by which the host is taken to have stretched the
// times measured between the given probes: 1 on the quiet reference box,
// 1.57 when the probe runs at 0.55× speed. A time is divided by it, a rate
// multiplied.
func hostIndex(probes []float64) float64 {
	return 1 + hostSensitivity*(mean(probes)/probeQuietMs-1)
}
