package kernel

import (
	"errors"
	"fmt"
	"time"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// AccessMask describes the kind of access being checked by a permission
// hook, mirroring the MAY_READ/MAY_WRITE/MAY_EXEC masks LSM hooks receive.
type AccessMask uint8

// Access mask bits.
const (
	MayRead AccessMask = 1 << iota
	MayWrite
	MayExec
	// MayUnlink asks whether the task may observe and remove the inode's
	// directory entry. Unlink's outcome reveals the entry's existence, so
	// modules grant it only to callers that can read the inode — or could,
	// after a legal label change (the tag's capability holders). Denials
	// must look like ENOENT.
	MayUnlink
)

// LabelType selects which of a principal's two labels a label-management
// syscall operates on.
type LabelType uint8

// Label types for set_task_label.
const (
	Secrecy LabelType = iota
	Integrity
)

// Capability names a single (tag, kind) capability for transfer and drop
// operations.
type Capability struct {
	Tag  difc.Tag
	Kind difc.CapKind
}

// SecurityModule is the hook table a security module registers with the
// kernel — the simulated equivalent of struct security_operations. Every
// hook receives the acting task; returning a non-nil error denies the
// operation.
//
// The Laminar module (package lsm) implements all of these. Running the
// kernel with a nil module reproduces unmodified Linux for the Table 2
// baselines.
type SecurityModule interface {
	// Name identifies the module ("laminar").
	Name() string

	// TaskAlloc runs at fork: the module populates child.Security from
	// parent (labels inherited, capabilities restricted to keep, which is
	// nil to mean "all"). It must reject keep sets that exceed the
	// parent's capabilities.
	TaskAlloc(parent, child *Task, keep []Capability) error

	// TaskFree runs at exit.
	TaskFree(t *Task)

	// InodeInitSecurity runs when an inode is created inside dir. labels
	// is non-nil only for the create_file_labeled/mkdir_labeled syscalls;
	// the module enforces the three labeled-create conditions of §5.2 and
	// attaches the in-memory label state.
	InodeInitSecurity(t *Task, dir, inode *Inode, labels *difc.Labels) error

	// InodePostCreate runs after the new inode has been linked into its
	// parent directory; the module persists the inode's labels to xattrs
	// here (shadow-write + flip, so a crash mid-persist is recoverable).
	// On a non-crash error the kernel unlinks the entry and fails the
	// create; on EKILLED (injected crash) the partial state is left in
	// place for the recovery pass, exactly as a machine crash would.
	InodePostCreate(t *Task, dir, inode *Inode) error

	// InodePermission checks an access to an inode by path operations
	// (stat, unlink, directory lookup). The mask says what the caller
	// wants to do.
	InodePermission(t *Task, inode *Inode, mask AccessMask) error

	// FilePermission checks each read/write on an open file description,
	// including pipe ends. Laminar checks every operation, so there is no
	// Flume-style endpoint state.
	FilePermission(t *Task, f *File, mask AccessMask) error

	// MmapFile checks a file-backed mmap request.
	MmapFile(t *Task, inode *Inode, prot int) error

	// TaskKill checks signal delivery from t to target.
	TaskKill(t *Task, target *Task, sig Signal) error

	// --- Laminar label-management syscalls (Figure 3) ---

	// AllocTag creates a fresh tag and grants the caller both
	// capabilities for it.
	AllocTag(t *Task) (difc.Tag, error)

	// SetTaskLabel replaces the caller's label of the given type,
	// enforcing the label-change rule against the caller's capabilities.
	SetTaskLabel(t *Task, typ LabelType, l difc.Label) error

	// DropLabelTCB clears the current labels of target without capability
	// checks; only callable by a task carrying the special tcb integrity
	// tag, and only for tasks in the caller's own process group (the VM's
	// own threads).
	DropLabelTCB(t *Task, target *Task) error

	// DropCapabilities removes capabilities from the caller. When tmp is
	// true the drop is a suspension that RestoreCapabilities can undo
	// (used for the scope of a security region or across fork).
	DropCapabilities(t *Task, caps []Capability, tmp bool) error

	// RestoreCapabilities undoes temporary drops.
	RestoreCapabilities(t *Task) error

	// WriteCapability queues a capability on a pipe for the reader to
	// claim; the module checks that sender labels permit the flow.
	WriteCapability(t *Task, cap Capability, f *File) error

	// ReadCapability claims a queued capability from a pipe.
	ReadCapability(t *Task, f *File) (Capability, error)
}

// gate is the kernel's one dispatch point for security-module hooks, the
// simulated security/security.c: every error-returning hook call runs fn
// through it. In order, gate counts the call for HookCalls; when the
// recorder is active, bumps the site counter and starts the clock; for a
// faultable hook, consults the injector at site, failing closed (an
// injected Error denies, a Crash kills the acting task); and runs the
// module, recording latency and deny or allow provenance. Fault-injected
// denials are therefore observed too, classified RuleFault.
//
// Callers pass the acting task (nil means "no task") and the inode number
// the check concerns (0 when none), which keys cross-hop trace stamping.
// Hooks run with the acting task's syscall-entry lock held, so with the
// recorder inactive gate adds one atomic level load to the count, and
// only the denial path allocates.
//
// The privilege-shedding hooks (DropCapabilities, RestoreCapabilities)
// are not faultable: a failed drop would leave the caller holding
// capabilities it believes it shed, which fails open. Neither are
// AllocTag and DropLabelTCB (DESIGN.md §8).
func (k *Kernel) gate(site, op string, t *Task, ino uint64, faultable bool, fn func() error) error {
	k.hookCalls.Add(1)
	rec := k.tel
	on := rec != nil && rec.Active()
	var tid, proc uint64
	var start time.Time
	if on {
		if t != nil {
			tid, proc = uint64(t.TID), t.Proc
		}
		rec.M.Hooks.Inc(site, tid)
		start = time.Now()
	}
	var err error
	if faultable && k.inj != nil {
		switch k.trip(site, t) {
		case faultinject.Error:
			err = fmt.Errorf("%w: injected fault in hook %s", ErrIO, site[len("hook."):])
		case faultinject.Crash:
			err = ErrKilled
		}
	}
	if err == nil {
		err = fn()
	}
	if !on {
		return err
	}
	d := time.Since(start)
	rec.M.HookLatency.Observe(d)
	rec.M.ObserveLayer(telemetry.LayerLSM, d)
	if err != nil {
		rec.Emit(denyEvent(site, op, tid, proc, ino, err))
	} else if rec.Verbose() {
		rec.Emit(telemetry.Event{Layer: telemetry.LayerLSM, Kind: telemetry.KindAllow,
			Op: op, Site: site, TID: tid, Proc: proc, Ino: ino})
	}
	return err
}

// trip consults the injector at site for the acting task and records a
// firing as fault-trip provenance. On a Crash it kills the task in place
// (descriptors dropped, security state freed, no cleanup of the operation
// in flight); init cannot die — killing it would be a whole-machine
// crash, which the harness models as a reboot — so its Crash comes back
// as an Error.
func (k *Kernel) trip(site string, t *Task) faultinject.Kind {
	if k.inj == nil {
		return faultinject.None
	}
	kind := k.inj.At(site)
	if kind != faultinject.Error && kind != faultinject.Crash {
		return kind
	}
	if k.tel != nil && k.tel.Active() {
		var tid uint64
		if t != nil {
			tid = uint64(t.TID)
		}
		k.tel.EmitFaultTrip(telemetry.LayerKernel, site, tid, kind.String())
	}
	if kind == faultinject.Crash && t != nil {
		if t.TID == 1 {
			return faultinject.Error
		}
		k.killTaskHolding(t)
	}
	return kind
}

// denyEvent classifies a hook denial. Structured difc errors name their
// rule; denials that are I/O failures or injected kills — fail-closed,
// not policy — are marked RuleFault so replay knows there is no DIFC
// check behind them.
func denyEvent(site, op string, tid, proc, ino uint64, err error) telemetry.Event {
	e := telemetry.DenyEvent(telemetry.LayerLSM, site, op, tid, proc, err)
	e.Ino = ino
	if e.Rule == telemetry.RuleNone && (errors.Is(err, ErrIO) || errors.Is(err, ErrKilled)) {
		e.Rule = telemetry.RuleFault
	}
	return e
}

// maskOp renders an access mask as the operation name provenance records.
func maskOp(mask AccessMask) string {
	switch mask {
	case MayRead:
		return "read"
	case MayWrite:
		return "write"
	case MayExec:
		return "exec"
	case MayUnlink:
		return "unlink"
	case MayRead | MayExec:
		return "read|exec"
	case MayRead | MayWrite:
		return "read|write"
	default:
		return "access"
	}
}

// The hooks ordinary syscalls consult. Each allows everything when no
// module is installed (unmodified Linux); the label-management syscalls
// call gate themselves, after answering ENOSYS without a module.

func (k *Kernel) taskAlloc(parent, child *Task, keep []Capability) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.TaskAlloc", "fork", parent, 0, true, func() error {
		return k.sec.TaskAlloc(parent, child, keep)
	})
}

func (k *Kernel) inodeInitSecurity(t *Task, dir, inode *Inode, labels *difc.Labels) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.InodeInitSecurity", "create", t, uint64(inode.Ino), true, func() error {
		return k.sec.InodeInitSecurity(t, dir, inode, labels)
	})
}

func (k *Kernel) inodePostCreate(t *Task, dir, inode *Inode) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.InodePostCreate", "create-persist", t, uint64(inode.Ino), true, func() error {
		return k.sec.InodePostCreate(t, dir, inode)
	})
}

func (k *Kernel) inodePermission(t *Task, inode *Inode, mask AccessMask) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.InodePermission", maskOp(mask), t, uint64(inode.Ino), true, func() error {
		return k.sec.InodePermission(t, inode, mask)
	})
}

func (k *Kernel) filePermission(t *Task, f *File, mask AccessMask) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.FilePermission", maskOp(mask), t, uint64(f.Inode.Ino), true, func() error {
		return k.sec.FilePermission(t, f, mask)
	})
}

func (k *Kernel) mmapFile(t *Task, inode *Inode, prot int) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.MmapFile", "mmap", t, uint64(inode.Ino), true, func() error {
		return k.sec.MmapFile(t, inode, prot)
	})
}

func (k *Kernel) taskKill(t, target *Task, sig Signal) error {
	if k.sec == nil {
		return nil
	}
	return k.gate("hook.TaskKill", "signal", t, 0, true, func() error {
		return k.sec.TaskKill(t, target, sig)
	})
}
