package kernel

import "laminar/internal/simwork"

// Work model. The simulated kernel elides the hardware work of a real
// syscall — mode switches, page-table updates, address-space copies, disk
// metadata writes — which would make security-hook costs look enormous
// relative to near-free in-memory operations. Each syscall therefore
// charges a work quantum proportional to its measured cost on the paper's
// platform (the Linux column of Table 2, compressed at the extremes so
// benchmarks stay fast). Hook overhead then lands on a realistic
// denominator, which is what makes the Table 2 *ratios* reproducible.
//
// The quanta are in spin units of roughly a nanosecond each; ratios
// between operations follow lmbench on Linux 2.6.22 (stat 0.92µs, fork
// 96µs, exec 300µs, 0k create 6.3µs, delete 2.5µs, mmap 6.9ms, prot fault
// 0.24µs, null I/O 0.13µs), with fork/exec/mmap compressed 10–500× to
// keep iteration counts practical.
const (
	workStat      = 900
	workFork      = 9600  // 96µs /10
	workExec      = 20000 // 300µs /15, charged on top of fork in lat_proc
	workCreate    = 6000
	workUnlink    = 2400
	workMkdir     = 6000
	workMmap      = 13000 // 6.9ms /500
	workProtFault = 220
	workRegularIO = 400 // per read/write on regular files
	workDeviceIO  = 100 // null I/O: the minimal syscall
	workPipeIO    = 300
	workSignal    = 300
	workReadDir   = 600
	workXattr     = 500

	// Vectored-write decomposition. A scalar regular-file write's
	// workRegularIO covers both the fixed syscall overhead (mode switch,
	// dispatch, fd lookup) and the per-payload data movement; lmbench's
	// null-I/O number (workDeviceIO) is a good estimate of the fixed
	// part, leaving the rest as data cost. WriteVec charges the dispatch
	// quantum once per batch and the data quantum once per element, so a
	// vector of n chunks costs workWriteDispatch + n*workWriteData
	// against n*(workWriteDispatch+workWriteData) for n scalar writes —
	// the same bytes, minus n-1 syscall entries.
	workWriteDispatch = workDeviceIO                 // 100: fixed per-syscall overhead
	workWriteData     = workRegularIO - workDeviceIO // 300: per-chunk regular-file data
	workPipeData      = workPipeIO - workDeviceIO    // 200: per-chunk pipe data
)

// charge spins for approximately units nanoseconds of CPU work, the same
// calibrated loop the case studies spend as application work. It runs
// outside any kernel lock in sharded mode: the spin models per-CPU
// hardware work, so it must not serialize syscalls.
func charge(units int) { simwork.Do(units) }
