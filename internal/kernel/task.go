package kernel

import (
	"sync"
	"sync/atomic"
)

// TID identifies a kernel task (thread). Threads are the principals of the
// Laminar DIFC model (§3).
type TID uint64

// Signal is a minimal signal number type for the kill syscall.
type Signal int

// Common signals used by the tests and case studies.
const (
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGUSR2 Signal = 12
)

// FD is a per-task file descriptor index.
type FD int

// Task is the simulated task_struct. A Task is the unit of principal
// identity: its labels and capabilities live in the LSM-managed Security
// blob. Tasks map 1:1 to the runtime threads of the Laminar VM, and a
// multithreaded process without a trusted VM must keep all of its tasks at
// identical labels (enforced by the VM layer, not here — the kernel treats
// every task independently, as Linux does).
type Task struct {
	TID TID
	// Proc groups tasks into a simulated process (address space). Forked
	// children inherit it; the drop_label_tcb syscall only works within
	// one process, so a trusted VM cannot drop labels on other
	// applications (§4.4).
	Proc uint64
	User string
	Cwd  *Inode

	// Security is the LSM security blob (labels + capabilities in the
	// Laminar module). Opaque to the kernel.
	Security any

	// mu is the task's syscall-entry lock under the sharded discipline:
	// held for the duration of every syscall the task issues, it guards
	// all mutable per-task state below plus Cwd and the Security blob
	// (see locking.go for the full ordering).
	mu sync.Mutex

	proc    *process // shared by every task of Proc
	fds     map[FD]*File
	nextFD  FD
	exited  atomic.Bool
	sigs    []Signal
	vmas    []vma
	nextMap uint64
}

// process is what the tasks of one simulated process share: their
// kernel and the number of them still live. Keeping the kernel pointer
// here rather than in each Task keeps a Task at 160 bytes.
type process struct {
	k       *Kernel
	threads atomic.Int32
}

// vma is a fake virtual memory area for the mmap/prot-fault
// microbenchmarks. Pages are 4 KiB; prot faults flip a per-page present
// bit, which is enough to charge the simulated fault path.
type vma struct {
	addr    uint64
	length  int
	prot    int
	present []bool
	file    *Inode // non-nil for file-backed mappings
}

// Page protection bits for Mmap/Mprotect.
const (
	ProtRead = 1 << iota
	ProtWrite
	ProtExec
)

// PageSize is the simulated page size.
const PageSize = 4096

// File is the simulated struct file: an open file description with a
// position and its own LSM security blob (Laminar checks flows on every
// file-descriptor operation, §2, so the blob mostly caches the inode
// reference).
type File struct {
	Inode *Inode
	Flags OpenFlag

	// mu guards offset and the lazily attached Security blob. A File can
	// be shared across tasks (DupTo models fd passing), so per-task locks
	// do not cover it.
	mu     sync.Mutex
	offset int

	// Security is the LSM blob attached at open time.
	Security any

	// pipe end bookkeeping: a pipe FD is either the read or write end.
	pipeReadEnd bool

	// sock is non-nil for socket endpoints (bidirectional pipe pair).
	sock *socketFile
}

// OpenFlag is the open(2) flag set understood by the simulated kernel.
type OpenFlag uint32

// Open flags.
const (
	ORead OpenFlag = 1 << iota
	OWrite
	OCreate
	OTrunc
	OAppend
)

// Exited reports whether the task has exited.
func (t *Task) Exited() bool { return t.exited.Load() }

// ThreadsInProc counts the live tasks of t's process, t included while
// it lives — the security module uses it to restrict label changes in
// multithreaded processes without a trusted VM (§4.1). It is one atomic
// load, so hooks may call it while holding task locks. A task is
// counted before it is published in the task table and uncounted when
// its exited flag flips, so the count is never below the number of
// published, unexited tasks of the process.
func (t *Task) ThreadsInProc() int { return int(t.proc.threads.Load()) }

// Kernel returns the kernel this task belongs to.
func (t *Task) Kernel() *Kernel { return t.proc.k }

func (t *Task) file(fd FD) (*File, error) {
	f, ok := t.fds[fd]
	if !ok {
		return nil, ErrBadF
	}
	return f, nil
}

func (t *Task) installFD(f *File) FD {
	fd := t.nextFD
	t.nextFD++
	t.fds[fd] = f
	return fd
}
