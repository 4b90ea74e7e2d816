//go:build !race

package budget

// raceEnabled reports whether the race detector is compiled in. The
// allocation pins skip under it: instrumentation adds allocations of its
// own.
const raceEnabled = false
