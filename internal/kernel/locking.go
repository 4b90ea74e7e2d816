package kernel

import (
	"sync"
	"time"
)

// This file implements the kernel's two locking disciplines.
//
// Historically every syscall serialized on one big kernel lock (k.mu).
// That is still available — WithBigLock() — because a serial kernel is
// the ideal differential-testing oracle. The default is now fine-grained:
//
//	lock                 guards
//	----                 ------
//	Task.mu              fds, nextFD, sigs, vmas, nextMap, Cwd, Security blob
//	File.mu              offset, lazily attached file Security blob
//	Inode.mu (RWMutex)   data, children, xattrs, pipe buffer, nlink
//	taskShard.mu ×16     one shard of the task table
//	Kernel.lmu           the listener namespace map
//	listener.mu          one listener's pending-connection queue
//
// Lock ORDER (outer → inner); a path may skip levels but never go back up:
//
//	task locks (two at once only via begin2, ascending TID)
//	→ file lock
//	→ inode locks (parent before child; a path walk holds at most one
//	  at a time and releases it before stepping to the next component)
//	→ task-table shard locks, listener locks (leaf; nothing is acquired
//	  under them)
//
// Security-module hooks run with the acting task's lock held and take no
// inode locks themselves. That is sound because label blobs are made
// immutable-in-place for inodes: every inode gets its blob before it is
// published (InodeInitSecurity pre-links it; boot inodes are primed in
// New via InodePrimer), so hook-side reads race with nothing. Task blobs
// are only mutated under that task's lock (own-task syscalls, begin2 for
// cross-task ones, WithTasksLocked for the VM runtime's trusted path).
//
// The counters nextTID/nextProc/hookCalls, the flags Task.exited and the
// per-process live-thread counts (process.threads) are atomics, readable
// without any lock in both modes.

// lockMode selects the concurrency discipline for one kernel instance.
type lockMode uint8

const (
	// lockSharded is the default fine-grained discipline.
	lockSharded lockMode = iota
	// lockBig serializes every syscall on k.mu, as the original kernel
	// did. The fine-grained locks are still taken (they are uncontended
	// and keep the code path identical); k.mu on the outside restores
	// the serial execution model.
	lockBig
)

// WithBigLock makes the kernel serialize every syscall on the big kernel
// lock, recreating the original execution model. Used as the oracle in
// differential tests and as the baseline in concurrency benchmarks.
func WithBigLock() Option {
	return func(k *Kernel) { k.mode = lockBig }
}

// WithIOLatency models device time for regular-file data transfers: each
// regular read/write sleeps d while holding its file/inode locks (and,
// in big-lock mode, the big kernel lock — which is precisely why a big
// kernel lock caps I/O-bound throughput). Zero (the default) disables
// the model; Table 2 style CPU-cost accounting via charge() is
// unaffected.
func WithIOLatency(d time.Duration) Option {
	return func(k *Kernel) { k.ioLatency = d }
}

// ioWait charges the configured device latency for one regular-file data
// transfer. Called with the transfer's locks held, deliberately.
func (k *Kernel) ioWait() {
	if k.ioLatency > 0 {
		time.Sleep(k.ioLatency)
	}
}

// InodePrimer is implemented by security modules that can attach a
// security blob to an inode or task outside any syscall. New() uses it
// to give every boot-time object (the filesystem skeleton, the socket
// namespace, the init task) its blob before the first syscall runs, so
// hook-side blob reads never race with a lazy first-touch allocation
// under the sharded discipline.
type InodePrimer interface {
	PrimeInode(ino *Inode)
	PrimeTask(t *Task)
}

// --- syscall entry guards -------------------------------------------------

// Every guard returns the lock it took, so a caller releases it with
// `defer k.begin(t).Unlock()` or a later `held.Unlock()`. A pointer to a
// mutex (or the RWMutex's own RLocker view) fits in an interface without
// boxing, so no guard allocates; a method value or closure as the
// release would cost a heap object per syscall.

// noLock is what begin returns when there is no task to lock.
type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// begin enters a syscall on behalf of t and returns the lock it holds.
// Big-lock mode: the big kernel lock. Sharded mode: t's task lock, held
// for the whole syscall (a task is a thread; its syscalls are serial by
// construction, so this is uncontended unless tests share a Task across
// goroutines — which the task lock makes safe too).
func (k *Kernel) begin(t *Task) sync.Locker {
	if k.mode == lockBig {
		k.mu.Lock()
		return &k.mu
	}
	if t == nil {
		return noLock{}
	}
	// With telemetry active, a failed TryLock counts as one contended
	// syscall entry before falling back to the blocking acquire. The
	// disabled path takes the plain Lock with no extra atomics.
	if rec := k.tel; rec != nil && rec.Active() {
		if !t.mu.TryLock() {
			rec.M.LockContention.Inc(uint64(t.TID))
			t.mu.Lock()
		}
		return &t.mu
	}
	t.mu.Lock()
	return &t.mu
}

// taskPair is the entry guard of a syscall that touches two tasks: the
// locks begin2 took, released inner first. hi is nil when one lock
// covers both tasks.
type taskPair struct{ lo, hi sync.Locker }

// Unlock releases the pair.
func (p taskPair) Unlock() {
	if p.hi != nil {
		p.hi.Unlock()
	}
	p.lo.Unlock()
}

// begin2 enters a syscall that touches two tasks (kill, dup-to,
// drop_label_tcb). Locks are taken in ascending TID order so concurrent
// cross-task syscalls cannot deadlock.
func (k *Kernel) begin2(a, b *Task) taskPair {
	if k.mode == lockBig {
		k.mu.Lock()
		return taskPair{lo: &k.mu}
	}
	switch {
	case b == nil || a == b:
		return taskPair{lo: k.begin(a)}
	case a == nil:
		return taskPair{lo: k.begin(b)}
	}
	lo, hi := a, b
	if lo.TID > hi.TID {
		lo, hi = hi, lo
	}
	lo.mu.Lock()
	hi.mu.Lock()
	return taskPair{lo: &lo.mu, hi: &hi.mu}
}

// WithTasksLocked runs fn with the syscall-entry locks of a and b held —
// the trusted side door for the VM runtime, whose label-sync path calls
// module methods (SetLabelTCB) directly rather than through a syscall.
// Either task may be nil.
func (k *Kernel) WithTasksLocked(a, b *Task, fn func()) {
	defer k.begin2(a, b).Unlock()
	fn()
}

// --- data locks -----------------------------------------------------------

// The fine-grained locks are taken unconditionally in both modes: in
// big-lock mode they are uncontended by construction, and sharing one
// code path is what makes the serial kernel a meaningful oracle.

func (k *Kernel) lockInode(i *Inode) sync.Locker {
	i.mu.Lock()
	return &i.mu
}

func (k *Kernel) rlockInode(i *Inode) sync.Locker {
	i.mu.RLock()
	return i.mu.RLocker()
}

func (k *Kernel) lockFile(f *File) sync.Locker {
	f.mu.Lock()
	return &f.mu
}

// --- sharded task table ---------------------------------------------------

const taskShardCount = 16

type taskShard struct {
	mu sync.RWMutex
	m  map[TID]*Task
}

func (k *Kernel) shardFor(tid TID) *taskShard {
	return &k.shards[uint64(tid)%taskShardCount]
}

// taskLookup finds a task by TID; it may be exited. Takes only the shard
// lock, so it is safe at any point in the lock order above shard level.
func (k *Kernel) taskLookup(tid TID) (*Task, bool) {
	sh := k.shardFor(tid)
	sh.mu.RLock()
	t, ok := sh.m[tid]
	sh.mu.RUnlock()
	return t, ok
}

// taskInsert publishes a fully initialized task.
func (k *Kernel) taskInsert(t *Task) {
	sh := k.shardFor(t.TID)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[TID]*Task)
	}
	sh.m[t.TID] = t
	sh.mu.Unlock()
}

// taskDelete removes a task from the table.
func (k *Kernel) taskDelete(tid TID) {
	sh := k.shardFor(tid)
	sh.mu.Lock()
	delete(sh.m, tid)
	sh.mu.Unlock()
}
