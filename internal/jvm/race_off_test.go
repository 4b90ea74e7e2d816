//go:build !race

package jvm

// raceEnabled reports whether the race detector is compiled in. The
// allocation pins skip under it: instrumentation adds allocations of its
// own.
const raceEnabled = false
