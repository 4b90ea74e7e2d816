// Package simwork provides a calibrated busy-work primitive used by the
// case studies to model the application work the original programs did
// around their security-sensitive sections — request parsing, network
// message encoding, connection handling, rendering. Both the secured and
// unsecured variant of each app perform identical simwork, so overhead
// comparisons isolate the DIFC machinery while the *proportions* of
// security work to application work track the paper's Table 3.
package simwork

import "sync/atomic"

// sink defeats dead-code elimination; the apps and the kernel's work
// model call Do concurrently, so the write is atomic.
var sink atomic.Uint64

// Do spins for approximately units nanoseconds of CPU work.
func Do(units int) {
	acc := uint64(1)
	for i := 0; i < units; i++ {
		acc = acc*1664525 + 1013904223
	}
	sink.Store(acc)
}
