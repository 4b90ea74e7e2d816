package kernel

import (
	"errors"
	"time"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// telemetrySec decorates the security-module hook table with decision
// provenance: every hook invocation is counted, timed, and — when it
// denies — classified into a telemetry event naming the rule that fired
// and the offending tag delta (telemetry.DenyEvent). It is installed
// OUTERMOST, above the fault-injection wrapper (faultsec.go), so that
// fail-closed denials manufactured by injected faults are observed too.
//
// Cost discipline: hooks run with the acting task's syscall-entry lock
// held, so everything here must be cheap and lock-free. When the
// recorder is at LevelOff the wrapper adds exactly one atomic load per
// hook; timing, event construction and label interning happen only past
// that gate, and only the denial path ever allocates.
type telemetrySec struct {
	SecurityModule
	rec *telemetry.Recorder
}

// WithTelemetry installs a specific telemetry recorder. The default is
// the process-wide telemetry.Default; tests and the chaos harness pass
// private recorders so parallel kernels do not share flight rings.
func WithTelemetry(rec *telemetry.Recorder) Option {
	return func(k *Kernel) { k.tel = rec }
}

// WithoutTelemetry boots the kernel with no telemetry wrapper at all —
// not even the LevelOff gate. This is the uninstrumented baseline (the
// "none" recorder rows) that laminar-bench -storm measures
// disabled-path overhead against.
func WithoutTelemetry() Option {
	return func(k *Kernel) { k.telOff = true }
}

// Telemetry returns the kernel's recorder (nil under WithoutTelemetry).
// The VM runtime emits its region/barrier provenance through it so one
// ring carries the whole stack's events.
func (k *Kernel) Telemetry() *telemetry.Recorder { return k.tel }

// wrapTelemetry decorates sec; must run after wrapFaulting so this
// wrapper is outermost.
func wrapTelemetry(k *Kernel) {
	if k.telOff {
		k.tel = nil
		return
	}
	if k.tel == nil {
		k.tel = telemetry.Default
	}
	if k.sec != nil {
		k.sec = &telemetrySec{SecurityModule: k.sec, rec: k.tel}
	}
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

// observe wraps one hook invocation: site counter, latency histograms
// (the all-hooks one and the LSM layer slice), denial provenance, and
// (at LevelAll) allow events. Callers pass the acting task for TID
// attribution — nil means "no task" (boot paths) — and the inode number
// the check concerns (0 when none), which keys cross-hop trace stamping.
func (ts *telemetrySec) observe(site, op string, t *Task, ino uint64, fn func() error) error {
	if !ts.rec.Active() {
		return fn()
	}
	var tid, proc uint64
	if t != nil {
		tid, proc = uint64(t.TID), t.Proc
	}
	ts.rec.M.Hooks.Inc(site, tid)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	ts.rec.M.HookLatency.Observe(d)
	ts.rec.M.ObserveLayer(telemetry.LayerLSM, d)
	if err != nil {
		ts.rec.Emit(denyEvent(site, op, tid, proc, ino, err))
	} else if ts.rec.Verbose() {
		ts.rec.Emit(telemetry.Event{Layer: telemetry.LayerLSM, Kind: telemetry.KindAllow,
			Op: op, Site: site, TID: tid, Proc: proc, Ino: ino})
	}
	return err
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

func (ts *telemetrySec) TaskAlloc(parent, child *Task, keep []Capability) error {
	return ts.observe("hook.TaskAlloc", "fork", parent, 0, func() error {
		return ts.SecurityModule.TaskAlloc(parent, child, keep)
	})
}

func (ts *telemetrySec) InodeInitSecurity(t *Task, dir, inode *Inode, labels *difc.Labels) error {
	return ts.observe("hook.InodeInitSecurity", "create", t, uint64(inode.Ino), func() error {
		return ts.SecurityModule.InodeInitSecurity(t, dir, inode, labels)
	})
}

func (ts *telemetrySec) InodePostCreate(t *Task, dir, inode *Inode) error {
	return ts.observe("hook.InodePostCreate", "create-persist", t, uint64(inode.Ino), func() error {
		return ts.SecurityModule.InodePostCreate(t, dir, inode)
	})
}

func (ts *telemetrySec) InodePermission(t *Task, inode *Inode, mask AccessMask) error {
	return ts.observe("hook.InodePermission", maskOp(mask), t, uint64(inode.Ino), func() error {
		return ts.SecurityModule.InodePermission(t, inode, mask)
	})
}

func (ts *telemetrySec) FilePermission(t *Task, f *File, mask AccessMask) error {
	return ts.observe("hook.FilePermission", maskOp(mask), t, uint64(f.Inode.Ino), func() error {
		return ts.SecurityModule.FilePermission(t, f, mask)
	})
}

func (ts *telemetrySec) MmapFile(t *Task, inode *Inode, prot int) error {
	return ts.observe("hook.MmapFile", "mmap", t, uint64(inode.Ino), func() error {
		return ts.SecurityModule.MmapFile(t, inode, prot)
	})
}

func (ts *telemetrySec) TaskKill(t *Task, target *Task, sig Signal) error {
	return ts.observe("hook.TaskKill", "signal", t, 0, func() error {
		return ts.SecurityModule.TaskKill(t, target, sig)
	})
}

func (ts *telemetrySec) AllocTag(t *Task) (difc.Tag, error) {
	var tag difc.Tag
	err := ts.observe("hook.AllocTag", "alloc_tag", t, 0, func() (e error) {
		tag, e = ts.SecurityModule.AllocTag(t)
		return
	})
	return tag, err
}

func (ts *telemetrySec) SetTaskLabel(t *Task, typ LabelType, l difc.Label) error {
	return ts.observe("hook.SetTaskLabel", "set_task_label", t, 0, func() error {
		return ts.SecurityModule.SetTaskLabel(t, typ, l)
	})
}

func (ts *telemetrySec) DropLabelTCB(t *Task, target *Task) error {
	return ts.observe("hook.DropLabelTCB", "drop_label_tcb", t, 0, func() error {
		return ts.SecurityModule.DropLabelTCB(t, target)
	})
}

func (ts *telemetrySec) DropCapabilities(t *Task, caps []Capability, tmp bool) error {
	return ts.observe("hook.DropCapabilities", "drop_capabilities", t, 0, func() error {
		return ts.SecurityModule.DropCapabilities(t, caps, tmp)
	})
}

func (ts *telemetrySec) RestoreCapabilities(t *Task) error {
	return ts.observe("hook.RestoreCapabilities", "restore_capabilities", t, 0, func() error {
		return ts.SecurityModule.RestoreCapabilities(t)
	})
}

func (ts *telemetrySec) WriteCapability(t *Task, cap Capability, f *File) error {
	return ts.observe("hook.WriteCapability", "write_capability", t, uint64(f.Inode.Ino), func() error {
		return ts.SecurityModule.WriteCapability(t, cap, f)
	})
}

func (ts *telemetrySec) ReadCapability(t *Task, f *File) (Capability, error) {
	var c Capability
	err := ts.observe("hook.ReadCapability", "read_capability", t, uint64(f.Inode.Ino), func() (e error) {
		c, e = ts.SecurityModule.ReadCapability(t, f)
		return
	})
	return c, err
}
