package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// Kernel is the simulated operating system: a sharded task table, an
// in-memory VFS, and an optional security module consulted through
// LSM-style hooks. All syscalls take the acting *Task.
//
// By default syscalls from different tasks run concurrently under the
// fine-grained locking discipline documented in locking.go; WithBigLock
// restores the original one-big-mutex execution model for differential
// testing and baseline benchmarks.
type Kernel struct {
	// mu is the big kernel lock, used only in lockBig mode.
	mu   sync.Mutex
	mode lockMode

	// sec is the security module; every error-returning hook call goes
	// through gate (security.go).
	sec SecurityModule

	root   *Inode
	shards [taskShardCount]taskShard

	nextTID  atomic.Uint64
	nextProc atomic.Uint64

	lmu       sync.Mutex // guards listeners
	listeners map[string]*listener
	// socketNS is the unlabeled pseudo-inode representing the socket name
	// namespace; advertising a listener writes it.
	socketNS *Inode

	// hookCalls counts security hook invocations, for tests that assert
	// the hook surface is actually exercised.
	hookCalls atomic.Uint64

	// ioLatency is the simulated device time per regular-file data
	// transfer (see WithIOLatency); zero disables the model.
	ioLatency time.Duration

	// inj is the optional fault injector consulted at every syscall-layer
	// injection point. nil (production) injects nothing.
	inj faultinject.Injector

	// tel is the telemetry recorder gate reports hook calls to. Defaults
	// to telemetry.Default; nil under WithoutTelemetry.
	tel *telemetry.Recorder
	// telOff boots the kernel with no recorder at all (the benchmark
	// baseline).
	telOff bool

	// budget is the optional quantitative flow-budget ledger (ISSUE 10).
	// nil means unbudgeted: every declassification egress is unmetered,
	// the pre-budget behavior. Non-nil, the three egress layers (lsm
	// relabels, netlabel sends, rt region exits) charge it before their
	// side effects.
	budget *budget.Ledger
}

// Option configures kernel construction.
type Option func(*Kernel)

// WithSecurityModule installs the security module. Without this option the
// kernel behaves as unmodified Linux.
func WithSecurityModule(m SecurityModule) Option {
	return func(k *Kernel) { k.sec = m }
}

// WithFaultInjector installs a fault injector consulted at the syscall
// layer's injection points (the chaos harness uses this; production runs
// without one).
func WithFaultInjector(inj faultinject.Injector) Option {
	return func(k *Kernel) { k.inj = inj }
}

// WithTelemetry installs a specific telemetry recorder. The default is
// the process-wide telemetry.Default; tests and the chaos harness pass
// private recorders so parallel kernels do not share flight rings.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(k *Kernel) { k.tel = rec }
}

// WithoutTelemetry boots the kernel with no recorder at all — not even
// the LevelOff gate's atomic load. This is the uninstrumented baseline
// (the "none" recorder rows) that laminar-bench -storm measures the
// disabled-path overhead against; hooks are still counted for HookCalls.
func WithoutTelemetry() Option {
	return func(k *Kernel) { k.telOff = true }
}

// Telemetry returns the kernel's recorder (nil under WithoutTelemetry).
// The VM runtime emits its region/barrier provenance through it so one
// ring carries the whole stack's events.
func (k *Kernel) Telemetry() *telemetry.Recorder { return k.tel }

// Injector exposes the installed fault injector (nil when none); the VM
// runtime consults it on the tcb label-sync path.
func (k *Kernel) Injector() faultinject.Injector { return k.inj }

// WithBudget installs the flow-budget ledger.
func WithBudget(l *budget.Ledger) Option {
	return func(k *Kernel) { k.budget = l }
}

// Budget returns the installed ledger, or nil when the kernel runs
// unbudgeted.
func (k *Kernel) Budget() *budget.Ledger { return k.budget }

// inject consults the injector at site for the acting task (see trip).
// Called with the acting task's syscall-entry lock held, at the top of
// (or inside) faultable syscalls. It doubles as the killed-task gate: a
// task that was crash-killed mid-operation gets ESRCH from every
// subsequent syscall. An injected Error aborts the syscall with EIO, a
// Crash with EKILLED; a Delay is a scheduling hiccup with no semantic
// effect.
func (k *Kernel) inject(site string, t *Task) error {
	if t != nil && t.exited.Load() {
		return ErrSrch
	}
	switch k.trip(site, t) {
	case faultinject.Error:
		return ErrIO
	case faultinject.Crash:
		return ErrKilled
	default:
		return nil
	}
}

// PersistFault consults inj at a persistence step outside any syscall
// (label records, cluster checkpoints). An Error is a transient media
// failure (EIO naming the site); a Crash is the machine dying mid-step
// (EKILLED), leaving the store exactly as the steps so far left it. A
// nil injector never faults.
func PersistFault(inj faultinject.Injector, site string) error {
	if inj == nil {
		return nil
	}
	switch inj.At(site) {
	case faultinject.Error:
		return fmt.Errorf("%w: injected fault at %s", ErrIO, site)
	case faultinject.Crash:
		return ErrKilled
	default:
		return nil
	}
}

// killTaskHolding terminates t mid-operation (fault-injected crash): the
// task table entry is removed and security state freed, exactly as Exit,
// but without any syscall-level cleanup of the operation in flight. Init
// (TID 1) is immortal, as in a real kernel. The caller holds t's
// syscall-entry lock (t.mu in sharded mode, k.mu in big-lock mode).
func (k *Kernel) killTaskHolding(t *Task) {
	if t.TID == 1 || !t.exited.CompareAndSwap(false, true) {
		return
	}
	t.proc.threads.Add(-1)
	t.fds = make(map[FD]*File)
	if k.sec != nil {
		k.sec.TaskFree(t)
	}
	k.taskDelete(t.TID)
}

// New boots a kernel: builds the root filesystem skeleton (/, /etc, /home,
// /tmp, /dev/null, /dev/zero) and the init task (TID 1).
func New(opts ...Option) *Kernel {
	k := &Kernel{}
	for _, o := range opts {
		o(k)
	}
	if k.telOff {
		k.tel = nil
	} else if k.tel == nil {
		k.tel = telemetry.Default
	}
	k.root = newInode(TypeDir, 0o755)
	init := k.newTask(nil, "root")
	init.proc.threads.Add(1)
	k.taskInsert(init)
	k.nextProc.Store(1)
	init.Proc = 1
	init.Cwd = k.root
	// Standard tree. mkdirInternal bypasses hooks: this is boot, before
	// any principal exists; the module labels these directories itself in
	// its InstallSystemIntegrity step.
	etc := k.mkdirInternal(k.root, "etc")
	k.mkdirInternal(etc, "laminar")
	k.mkdirInternal(k.root, "home")
	k.mkdirInternal(k.root, "tmp")
	dev := k.mkdirInternal(k.root, "dev")
	null := newInode(TypeDevNull, 0o666)
	null.parent = dev
	dev.children["null"] = null
	zero := newInode(TypeDevZero, 0o666)
	zero.parent = dev
	dev.children["zero"] = zero
	k.socketNS = newInode(TypeDir, 0o777)
	// Prime every boot-time object's security blob before the first
	// syscall: under the sharded discipline, hooks read blobs without
	// inode locks, which is only race-free if no blob is ever created
	// lazily on a hot path (locking.go).
	if p, ok := k.sec.(InodePrimer); ok {
		var prime func(*Inode)
		prime = func(ino *Inode) {
			p.PrimeInode(ino)
			for _, name := range ino.childNames() {
				prime(ino.children[name])
			}
		}
		prime(k.root)
		p.PrimeInode(k.socketNS)
		p.PrimeTask(init)
	}
	return k
}

// Root returns the root directory inode (used by the security module to
// install system integrity labels at boot).
func (k *Kernel) Root() *Inode { return k.root }

// WalkInodes visits every inode reachable from the root, depth-first in
// sorted-name order. The security module's crash-recovery pass uses it to
// rebuild label state from persistent records; that pass mutates blobs,
// so it runs only at boot/reboot time when the kernel is quiescent.
func (k *Kernel) WalkInodes(fn func(*Inode)) {
	if k.mode == lockBig {
		k.mu.Lock()
		defer k.mu.Unlock()
	}
	var walk func(*Inode)
	walk = func(ino *Inode) {
		fn(ino)
		held := k.rlockInode(ino)
		kids := make([]*Inode, 0, len(ino.children))
		for _, name := range ino.childNames() {
			kids = append(kids, ino.children[name])
		}
		held.Unlock()
		for _, c := range kids {
			walk(c)
		}
	}
	walk(k.root)
}

// HookCalls reports how many security hooks have fired since boot.
func (k *Kernel) HookCalls() uint64 { return k.hookCalls.Load() }

// newTask allocates a task without publishing it in the table; callers
// count it in its process and insert it once fully initialized, so
// concurrent table readers never see a half-built task. A task without a
// parent starts a process of its own.
func (k *Kernel) newTask(parent *Task, user string) *Task {
	t := &Task{
		TID:  TID(k.nextTID.Add(1)),
		User: user,
		fds:  make(map[FD]*File),
	}
	if parent == nil {
		t.proc = &process{k: k}
	} else {
		t.Proc = parent.Proc
		t.Cwd = parent.Cwd
		t.User = parent.User
		t.proc = parent.proc
	}
	return t
}

// InitTask returns the boot task (TID 1).
func (k *Kernel) InitTask() *Task {
	t, _ := k.taskLookup(1)
	return t
}

// Fork creates a child task. keep restricts the capabilities the child
// inherits: nil means all of the parent's capabilities, an empty non-nil
// slice means none. The paper's model: a new principal's capabilities are
// a subset of its immediate parent's (§4.4).
func (k *Kernel) Fork(parent *Task, keep []Capability) (*Task, error) {
	return k.fork(parent, keep, false)
}

// Spawn is Fork into a fresh process (new address space): the child gets a
// new Proc id, so it is outside the parent's trusted-VM boundary.
func (k *Kernel) Spawn(parent *Task, keep []Capability) (*Task, error) {
	return k.fork(parent, keep, true)
}

func (k *Kernel) fork(parent *Task, keep []Capability, newProc bool) (*Task, error) {
	defer k.begin(parent).Unlock()
	charge(workFork)
	if parent.exited.Load() {
		return nil, ErrSrch
	}
	if err := k.inject("task.fork", parent); err != nil {
		return nil, err
	}
	child := k.newTask(parent, parent.User)
	if newProc {
		child.Proc = k.nextProc.Add(1)
		child.proc = &process{k: k}
	}
	if err := k.taskAlloc(parent, child, keep); err != nil {
		return nil, err
	}
	// Publish only after the security blob is attached: table readers
	// (Kill, DropLabelTCB) must never see a half-built task. Count the
	// child first, so ThreadsInProc never reads below the published,
	// unexited tasks of the process and the §4.1 refusal never opens.
	child.proc.threads.Add(1)
	k.taskInsert(child)
	return child, nil
}

// Exec simulates execve: the task's address space is replaced (all vmas
// dropped) after the security module approves executing the file at path.
// Labels and capabilities persist across exec, as in Laminar.
func (k *Kernel) Exec(t *Task, path string) error {
	defer k.begin(t).Unlock()
	charge(workExec)
	if err := k.inject("task.exec", t); err != nil {
		return err
	}
	ino, err := k.resolve(t, path)
	if err != nil {
		return hideDenied(err)
	}
	if ino.isDir() {
		return ErrIsDir
	}
	if err := k.inodePermission(t, ino, MayRead|MayExec); err != nil {
		return hideDenied(err)
	}
	t.vmas = nil
	return nil
}

// Exit terminates the task, closing its files and freeing its security
// state. Exit status is deliberately not observable across label
// boundaries (termination-channel hygiene, §4.3.3): there is no wait
// syscall that reports status to arbitrary tasks.
func (k *Kernel) Exit(t *Task) {
	defer k.begin(t).Unlock()
	if !t.exited.CompareAndSwap(false, true) {
		return
	}
	t.proc.threads.Add(-1)
	t.fds = make(map[FD]*File)
	if k.sec != nil {
		k.sec.TaskFree(t)
	}
	k.taskDelete(t.TID)
}

// Kill delivers a signal to target if the security module allows the flow.
func (k *Kernel) Kill(t *Task, target TID, sig Signal) error {
	// The table lookup takes only shard locks, so it happens before the
	// task locks; liveness is re-checked once they are held.
	dst, _ := k.taskLookup(target)
	defer k.begin2(t, dst).Unlock()
	charge(workSignal)
	if err := k.inject("task.kill", t); err != nil {
		return err
	}
	if dst == nil || dst.exited.Load() {
		return ErrSrch
	}
	if err := k.taskKill(t, dst, sig); err != nil {
		return err
	}
	dst.sigs = append(dst.sigs, sig)
	return nil
}

// SigPending drains and returns the task's pending signals.
func (k *Kernel) SigPending(t *Task) []Signal {
	defer k.begin(t).Unlock()
	out := t.sigs
	t.sigs = nil
	return out
}

// --- Laminar label-management syscalls (Figure 3) ---

// AllocTag implements alloc_tag: returns a fresh tag and grants the caller
// t+ and t-.
func (k *Kernel) AllocTag(t *Task) (difc.Tag, error) {
	if k.sec == nil {
		return difc.InvalidTag, ErrNoSys
	}
	defer k.begin(t).Unlock()
	var tag difc.Tag
	err := k.gate("hook.AllocTag", "alloc_tag", t, 0, false, func() (e error) {
		tag, e = k.sec.AllocTag(t)
		return
	})
	return tag, err
}

// SetTaskLabel implements set_task_label for the given label type.
func (k *Kernel) SetTaskLabel(t *Task, typ LabelType, l difc.Label) error {
	if k.sec == nil {
		return ErrNoSys
	}
	defer k.begin(t).Unlock()
	// Denying a label change is safe in both directions: a refused raise
	// blocks the caller from reading up; a refused clear keeps taint.
	return k.gate("hook.SetTaskLabel", "set_task_label", t, 0, true, func() error {
		return k.sec.SetTaskLabel(t, typ, l)
	})
}

// DropLabelTCB implements drop_label_tcb: clears target's labels without
// capability checks; restricted by the module to tcb-tagged callers.
func (k *Kernel) DropLabelTCB(t *Task, target TID) error {
	if k.sec == nil {
		return ErrNoSys
	}
	dst, ok := k.taskLookup(target)
	if !ok || dst.exited.Load() {
		return ErrSrch
	}
	defer k.begin2(t, dst).Unlock()
	if dst.exited.Load() {
		return ErrSrch
	}
	return k.gate("hook.DropLabelTCB", "drop_label_tcb", t, 0, false, func() error {
		return k.sec.DropLabelTCB(t, dst)
	})
}

// DropCapabilities implements drop_capabilities; tmp suspends rather than
// destroys (restored by RestoreCapabilities).
func (k *Kernel) DropCapabilities(t *Task, caps []Capability, tmp bool) error {
	if k.sec == nil {
		return ErrNoSys
	}
	defer k.begin(t).Unlock()
	return k.gate("hook.DropCapabilities", "drop_capabilities", t, 0, false, func() error {
		return k.sec.DropCapabilities(t, caps, tmp)
	})
}

// RestoreCapabilities undoes temporary capability drops.
func (k *Kernel) RestoreCapabilities(t *Task) error {
	if k.sec == nil {
		return ErrNoSys
	}
	defer k.begin(t).Unlock()
	return k.gate("hook.RestoreCapabilities", "restore_capabilities", t, 0, false, func() error {
		return k.sec.RestoreCapabilities(t)
	})
}

// WriteCapability implements write_capability: sends a capability to
// another principal over a pipe.
func (k *Kernel) WriteCapability(t *Task, cap Capability, fd FD) error {
	if k.sec == nil {
		return ErrNoSys
	}
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return err
	}
	if f.Inode.Type != TypePipe {
		return ErrInval
	}
	// The module's implementation queues the capability on the pipe
	// inode, so the pipe-state lock is held across the hook.
	defer k.lockInode(f.Inode).Unlock()
	return k.gate("hook.WriteCapability", "write_capability", t, uint64(f.Inode.Ino), true, func() error {
		return k.sec.WriteCapability(t, cap, f)
	})
}

// ReadCapability claims a capability previously queued on the pipe.
func (k *Kernel) ReadCapability(t *Task, fd FD) (Capability, error) {
	if k.sec == nil {
		return Capability{}, ErrNoSys
	}
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return Capability{}, err
	}
	if f.Inode.Type != TypePipe {
		return Capability{}, ErrInval
	}
	defer k.lockInode(f.Inode).Unlock()
	var c Capability
	err = k.gate("hook.ReadCapability", "read_capability", t, uint64(f.Inode.Ino), true, func() (e error) {
		c, e = k.sec.ReadCapability(t, f)
		return
	})
	return c, err
}

// String describes the kernel configuration.
func (k *Kernel) String() string {
	name := "none"
	if k.sec != nil {
		name = k.sec.Name()
	}
	mode := "sharded"
	if k.mode == lockBig {
		mode = "biglock"
	}
	return fmt.Sprintf("kernel{lsm=%s,lock=%s}", name, mode)
}
