// Package lsm is the Laminar security module: the simulated counterpart of
// the ~1,000-line Linux Security Module plus ~500 lines of kernel changes
// described in §5.2 of the paper. It attaches secrecy/integrity labels and
// capability sets to tasks, inodes and files through the kernel's opaque
// security fields, enforces the DIFC flow rules on every hooked operation,
// and implements the label-management syscalls of Figure 3.
package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// taskSec is the security blob attached to a task: its current labels, its
// capability set, and any temporarily suspended capabilities.
type taskSec struct {
	labels    difc.Labels
	caps      difc.CapSet
	suspended difc.CapSet
}

// inodeSec is the security blob attached to an inode.
type inodeSec struct {
	labels difc.Labels
}

// fileSec is attached to open file descriptions. Laminar checks labels on
// every operation, so the blob carries no per-endpoint state; it exists to
// mirror the LSM file blob and to let tests confirm attachment.
type fileSec struct{}

// Module implements kernel.SecurityModule with Laminar semantics.
type Module struct {
	nextTag atomic.Uint64

	// tcbTag is the special integrity tag that marks the trusted VM
	// thread allowed to call drop_label_tcb (§4.4).
	tcbTag difc.Tag

	// adminTag is the system-administrator integrity tag applied to
	// system directories at install time (§5.2).
	adminTag difc.Tag

	// quarantineTag is a secrecy tag for which NO principal ever receives
	// capabilities. Crash recovery relabels inodes whose persistent label
	// records are torn beyond repair with {quarantineTag}: unknowable
	// labels become maximally restricted, never readable (fail closed).
	quarantineTag difc.Tag

	// inj is the optional fault injector for the label-persistence path
	// (nil in production); see persist.go.
	inj faultinject.Injector

	// tel is the telemetry recorder for LSM-internal decisions the kernel's
	// hook gate cannot see: capability transfers silently dropped by pipe
	// semantics and quarantine relabels during crash recovery. nil means
	// unobserved (see SetTelemetry).
	tel *telemetry.Recorder

	// tcbProcs records processes that registered a trusted VM thread.
	// Multithreaded processes WITHOUT one must keep all threads at the
	// same labels (§4.1); the module enforces that by refusing label
	// changes once such a process has more than one thread.
	tcbProcs sync.Map // proc id (uint64) -> struct{}
}

var _ kernel.SecurityModule = (*Module)(nil)

// New constructs the module and reserves its three well-known tags.
func New() *Module {
	m := &Module{}
	m.tcbTag = m.allocate()
	m.adminTag = m.allocate()
	m.quarantineTag = m.allocate()
	return m
}

func (m *Module) allocate() difc.Tag {
	return difc.Tag(m.nextTag.Add(1))
}

// Name implements kernel.SecurityModule.
func (m *Module) Name() string { return "laminar" }

// taskState fetches (or lazily creates) a task's security blob. A task
// that predates module attachment starts unlabeled with no capabilities.
func (m *Module) taskState(t *kernel.Task) *taskSec {
	if s, ok := t.Security.(*taskSec); ok {
		return s
	}
	s := &taskSec{}
	t.Security = s
	return s
}

// inodeState fetches an inode's blob, falling back to the persisted label
// records so that labels survive module "reboots", as ext3 xattrs do. The
// lazy rebuild runs the same classification as the crash-recovery pass:
// a torn record never silently degrades to unlabeled (persist.go).
//
// Under the kernel's sharded locking the lazy path never runs hot:
// PrimeInode/PrimeTask attach blobs to every boot object before the
// first syscall and InodeInitSecurity covers everything created later,
// so concurrent hooks only ever read an already-attached blob.
func (m *Module) inodeState(ino *kernel.Inode) *inodeSec {
	if s, ok := ino.Security.(*inodeSec); ok {
		return s
	}
	labels, _ := m.recoverInodeLabels(ino)
	s := &inodeSec{labels: labels}
	ino.Security = s
	return s
}

// PrimeInode implements kernel.InodePrimer: it forces blob attachment at
// boot, before any concurrent syscalls, so hook-side reads never race
// with a lazy first-touch allocation.
func (m *Module) PrimeInode(ino *kernel.Inode) { m.inodeState(ino) }

// PrimeTask implements kernel.InodePrimer for the init task.
func (m *Module) PrimeTask(t *kernel.Task) { m.taskState(t) }

// TaskLabels reports a task's current labels (used by the VM runtime and
// by tests; Linux would expose this through /proc).
func (m *Module) TaskLabels(t *kernel.Task) difc.Labels { return m.taskState(t).labels }

// TaskCaps reports a task's current capability set.
func (m *Module) TaskCaps(t *kernel.Task) difc.CapSet { return m.taskState(t).caps }

// GrantCapability hands t the kind capabilities for tag. This is the
// trusted-path equivalent of receiving capabilities at login or from the
// tag allocator; only trusted callers (the VM runtime, login) use it.
func (m *Module) GrantCapability(t *kernel.Task, tag difc.Tag, kind difc.CapKind) {
	s := m.taskState(t)
	s.caps = s.caps.Grant(tag, kind)
}

// AdoptInodeLabels attaches wire-received labels to an inode created by
// the trusted network transport (kernel.NetSocketAdopted). No local
// principal creates the accepting end of a cross-kernel channel, so the
// labeled-create checks do not apply — the labels simply ARE what the
// peer kernel's handshake declared, and every local Send/Recv on the
// endpoint is then checked against them by the ordinary hooks. Callers
// must invoke this before the endpoint is published (the transport does,
// inside the NetSocketAdopted attach callback), preserving the
// blobs-before-publication invariant. Socket inodes are never persisted,
// matching local socketpairs.
func (m *Module) AdoptInodeLabels(ino *kernel.Inode, labels difc.Labels) {
	ino.Security = &inodeSec{labels: labels}
}

// AdoptTaskLabels sets a relay task's labels to wire-received channel
// labels, the task-side twin of AdoptInodeLabels. A routed cross-kernel
// channel is forwarded at each intermediate hop by a relay task the
// trusted transport spawns for exactly that channel; the relay must run
// AT the channel's labels so that its Recv from the inbound endpoint and
// Send to the outbound endpoint — both fully checked by this node's
// ordinary hooks — re-establish the flow rules at every hop. The relay
// holds no capabilities for the (remote-minted) tags, so the ordinary
// SetTaskLabel path cannot express this; like inode adoption, the labels
// simply ARE what the wire declared, and everything the task then does
// is checked against them.
func (m *Module) AdoptTaskLabels(t *kernel.Task, labels difc.Labels) {
	s := m.taskState(t)
	s.labels = labels
}

// RegisterTCBThread marks t as the trusted VM thread of its process by
// endorsing it with the tcb integrity tag. Only the VM's startup path
// (trusted code) calls this. The process is thereafter allowed to hold
// threads at heterogeneous labels: the VM regulates in-address-space
// flows (§4.1).
func (m *Module) RegisterTCBThread(t *kernel.Task) {
	s := m.taskState(t)
	s.labels.I = s.labels.I.Add(m.tcbTag)
	m.tcbProcs.Store(t.Proc, struct{}{})
}

// InstallSystemIntegrity labels the system directories (/, /etc,
// /etc/laminar, /home, /dev) with the administrator integrity tag, as done
// at install time (§5.2). /tmp stays unlabeled as scratch space, so tasks
// that eschew trust in the administrator can still create files there and
// in their own labeled trees via relative paths.
func (m *Module) InstallSystemIntegrity(k *kernel.Kernel) {
	// The init task receives the administrator capabilities so that it can
	// raise its integrity to {admin} when it must write system
	// directories (installing caps files, creating home directories).
	m.GrantCapability(k.InitTask(), m.adminTag, difc.CapBoth)
	adminLabels := difc.Labels{I: difc.NewLabel(m.adminTag)}
	label := func(ino *kernel.Inode) {
		s := m.inodeState(ino)
		s.labels = adminLabels
		// Boot labeling runs before any injector is installed; a persist
		// error here would mean the image itself is broken.
		_ = m.persistCommit(ino, adminLabels)
	}
	root := k.Root()
	label(root)
	for _, path := range [][]string{{"etc"}, {"etc", "laminar"}, {"home"}, {"dev"}} {
		ino := root
		ok := true
		for _, name := range path {
			if ino, ok = ino.Child(name); !ok {
				break
			}
		}
		if ok {
			label(ino)
		}
	}
}

// --- hook implementations ---

// TaskAlloc implements fork inheritance: labels copy to the child; the
// child's capabilities are the parent's restricted to keep (nil = all).
// The blob is built on a local and attached before the child is
// runnable.
func (m *Module) TaskAlloc(parent, child *kernel.Task, keep []kernel.Capability) error {
	ps := m.taskState(parent)
	cs := &taskSec{labels: ps.labels}
	if keep == nil {
		cs.caps = ps.caps
	} else {
		for _, c := range keep {
			if !ps.caps.Has(c.Tag, c.Kind) {
				return fmt.Errorf("%w: fork keep set exceeds parent capabilities (%v%v)", kernel.ErrPerm, c.Tag, c.Kind)
			}
			cs.caps = cs.caps.Grant(c.Tag, c.Kind)
		}
	}
	child.Security = cs
	return nil
}

// TaskFree clears the blob at exit; the task is already unrunnable and
// its TID retired.
func (m *Module) TaskFree(t *kernel.Task) { t.Security = nil }

// InodeInitSecurity labels a new inode. With explicit labels it enforces
// the three labeled-create conditions of §5.2; otherwise the inode takes
// the creating task's current labels (so a tainted thread's new files are
// as secret as the thread). The hook runs before the entry is linked, so
// the blob is attached pre-publication.
func (m *Module) InodeInitSecurity(t *kernel.Task, dir, ino *kernel.Inode, labels *difc.Labels) error {
	ts := m.taskState(t)
	s := &inodeSec{}
	if labels == nil {
		s.labels = ts.labels
	} else {
		f := *labels
		// (1) The creator's current secrecy must flow into the new file:
		// Sp ⊆ Sf, so a tainted creator cannot launder its taint into a
		// less-secret file. Checked as a pure secrecy flow so the denial
		// carries the exact FlowError operands.
		if err := difc.CheckFlow("create", difc.Labels{S: ts.labels.S}, difc.Labels{S: f.S}); err != nil {
			return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
		}
		// (2) The creator must hold capabilities to acquire the file's
		// labels: every secrecy tag it does not already carry needs the
		// plus capability, and every integrity tag it endorses the file
		// with needs the endorsement capability. (Holding t+ means the
		// creator could raise itself to the label anyway, so granting the
		// create directly is sound and avoids the traversal deadlock of
		// requiring high-integrity tasks to read low-integrity parents.)
		if err := difc.CheckAcquire("create", ts.labels.S, f.S, ts.caps); err != nil {
			return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
		}
		if err := difc.CheckAcquire("create", ts.labels.I, f.I, ts.caps); err != nil {
			return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
		}
		// (3) Write access to the parent directory with the creator's
		// *current* label is checked by the kernel's separate
		// InodePermission(dir, MayWrite) hook call.
		s.labels = f
	}
	// In-memory only: this hook runs before the entry is linked, so a
	// crash here leaves nothing behind. Persistence happens in
	// InodePostCreate, after the link, where a crash is recoverable.
	ino.Security = s
	return nil
}

// InodePostCreate persists the freshly linked inode's labels through the
// crash-consistent shadow/flip protocol. An error (including an injected
// crash) propagates to the kernel, which unwinds the create or leaves the
// torn state for recovery (see kernel.SecurityModule).
func (m *Module) InodePostCreate(t *kernel.Task, dir, ino *kernel.Inode) error {
	return m.persistCommit(ino, m.inodeState(ino).labels)
}

// InodePermission enforces the flow rules between the task and the inode.
func (m *Module) InodePermission(t *kernel.Task, ino *kernel.Inode, mask kernel.AccessMask) error {
	return m.checkAccess(t, ino, mask)
}

// FilePermission enforces the flow rules on each file-descriptor
// operation. Laminar has no endpoint abstraction: the label check happens
// here, on every read and write (§2).
func (m *Module) FilePermission(t *kernel.Task, f *kernel.File, mask kernel.AccessMask) error {
	if _, ok := f.Security.(*fileSec); !ok {
		f.Security = &fileSec{}
	}
	return m.checkAccess(t, f.Inode, mask)
}

// MmapFile treats a readable mapping as a read flow and a writable mapping
// as a write flow.
func (m *Module) MmapFile(t *kernel.Task, ino *kernel.Inode, prot int) error {
	var mask kernel.AccessMask
	if prot&kernel.ProtRead != 0 || prot&kernel.ProtExec != 0 {
		mask |= kernel.MayRead
	}
	if prot&kernel.ProtWrite != 0 {
		mask |= kernel.MayWrite
	}
	return m.checkAccess(t, ino, mask)
}

// checkAccess resolves the task-vs-inode flow decision for mask. Like
// Laminar's LSM (§5.2), every hooked operation re-derives its verdict
// from the task's and the inode's current labels; nothing is memoized,
// so no mutation path owes an invalidation.
func (m *Module) checkAccess(t *kernel.Task, ino *kernel.Inode, mask kernel.AccessMask) error {
	ts := m.taskState(t)
	verdict := m.decide(ts, m.inodeState(ino).labels, mask)
	if verdict == nil && m.tel != nil && m.tel.Verbose() && m.tel.TraceBound(uint64(ino.Ino)) {
		m.emitTracedAllows(t, ts, ino, mask)
	}
	return verdict
}

// emitTracedAllows records rich, replayable allow events for an allowed
// access on a trace-bound endpoint: full label operands at the site the
// flow check ran, so explain-route can re-run each hop's check from the
// dump (the allow-side counterpart of a denial's provenance). Emitted
// AFTER the verdict, from the mask alone. The unlink arm is
// deliberately skipped: its verdict folds in the couldRead escape, which
// a bare CheckFlow replay cannot reproduce.
func (m *Module) emitTracedAllows(t *kernel.Task, ts *taskSec, ino *kernel.Inode, mask kernel.AccessMask) {
	subj, obj := ts.labels, m.inodeState(ino).labels
	allow := func(op string, src, dst difc.Labels) {
		e := telemetry.Event{Layer: telemetry.LayerLSM, Kind: telemetry.KindAllow,
			Site: "lsm.checkAccess", Op: op, TID: uint64(t.TID), Proc: t.Proc, Ino: uint64(ino.Ino)}
		e.SetSrc(src)
		e.SetDst(dst)
		m.tel.Emit(e)
	}
	if mask&(kernel.MayRead|kernel.MayExec) != 0 {
		allow("read", obj, subj)
	}
	if mask&kernel.MayWrite != 0 {
		allow("write", subj, obj)
	}
}

// decide applies the read, write and unlink flow rules for mask.
func (m *Module) decide(ts *taskSec, obj difc.Labels, mask kernel.AccessMask) error {
	// Denial wraps use %w for the difc error too (not %v): the rendered
	// string is identical, but the structured *difc.FlowError stays
	// reachable through errors.As, which is how the telemetry layer
	// recovers the violated rule, the exact operands and the tag delta.
	if mask&(kernel.MayRead|kernel.MayExec) != 0 {
		if err := difc.CheckFlow("read", obj, ts.labels); err != nil {
			// Read denials carry the ErrAccessRead marker: path-based
			// syscalls convert them to ENOENT so a denied name is
			// indistinguishable from an absent one (kernel/errno.go).
			return fmt.Errorf("%w: %w", kernel.ErrAccessRead, err)
		}
	}
	if mask&kernel.MayWrite != 0 {
		if err := difc.CheckFlow("write", ts.labels, obj); err != nil {
			return fmt.Errorf("%w: %w", kernel.ErrAccess, err)
		}
	}
	if mask&kernel.MayUnlink != 0 {
		if err := difc.CheckFlow("unlink", obj, ts.labels); err != nil && !m.couldRead(ts, obj) {
			return fmt.Errorf("%w: %w", kernel.ErrAccessRead, err)
		}
	}
	return nil
}

// couldRead reports whether the task could legally change its labels so
// that reading obj becomes allowed — raise secrecy to cover obj.S (plus
// capabilities) and drop integrity tags obj lacks (minus capabilities).
// This is the §4.4 revocation case: the owner of a tag may unlink a file
// labeled with it without first tainting itself, because the file's
// existence is not secret to a capability holder.
func (m *Module) couldRead(ts *taskSec, obj difc.Labels) bool {
	target := difc.Labels{S: ts.labels.S.Union(obj.S), I: ts.labels.I.Meet(obj.I)}
	return difc.CanChangeLabels(ts.labels, target, ts.caps)
}

// TaskKill allows a signal only when information may flow from sender to
// target.
func (m *Module) TaskKill(t, target *kernel.Task, sig kernel.Signal) error {
	src := m.taskState(t).labels
	dst := m.taskState(target).labels
	if err := difc.CheckFlow("signal", src, dst); err != nil {
		return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
	}
	return nil
}

// AllocTag mints a fresh tag and grants the caller both capabilities; the
// caller becomes the tag's owner (§4.4). Tags are 64-bit, so exhaustion is
// not a concern (§4.4).
func (m *Module) AllocTag(t *kernel.Task) (difc.Tag, error) {
	tag := m.allocate()
	s := m.taskState(t)
	s.caps = s.caps.Grant(tag, difc.CapBoth)
	return tag, nil
}

// chargeDeclass meters capability-based declassification (ISSUE 10):
// each secrecy tag the relabel sheds spends one unit of its
// local-context budget (peer 0) BEFORE the label mutation commits.
// Exhaustion (or a ledger persist failure — fail closed) surfaces as the
// same ErrPerm-wrapped secrecy FlowError a missing minus capability
// produces, with the budget's own LayerBudget provenance emitted beside
// the kernel's LayerLSM event so explain-denial can name the real cause.
// A kernel without a ledger charges nothing.
func (m *Module) chargeDeclass(t *kernel.Task, site, op string, dropped difc.Label) error {
	led := t.Kernel().Budget()
	if led == nil || dropped.IsEmpty() {
		return nil
	}
	if err := led.ChargeLabel(op, dropped, 0, 1); err != nil {
		if m.tel != nil && m.tel.Active() {
			m.tel.EmitDeny(telemetry.LayerBudget, site, op, uint64(t.TID), t.Proc, err)
		}
		return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
	}
	return nil
}

// SetTaskLabel changes one of the caller's labels under the label-change
// rule. Laminar requires explicit label changes (§3.2): there is no
// implicit taint propagation.
func (m *Module) SetTaskLabel(t *kernel.Task, typ kernel.LabelType, l difc.Label) error {
	// §4.1: without a trusted VM mediating heap flows, all threads of a
	// multithreaded process must share one label. Refuse per-thread label
	// changes in such processes (single-threaded processes and processes
	// with a registered VM are unrestricted).
	if _, trusted := m.tcbProcs.Load(t.Proc); !trusted {
		if t.ThreadsInProc() > 1 {
			return fmt.Errorf("%w: label change in a multithreaded process without a trusted VM", kernel.ErrPerm)
		}
	}
	s := m.taskState(t)
	var cur difc.Label
	if typ == kernel.Secrecy {
		cur = s.labels.S
	} else {
		cur = s.labels.I
	}
	if err := difc.CheckChange("set_task_label", cur, l, s.caps); err != nil {
		return fmt.Errorf("%w: %w", kernel.ErrPerm, err)
	}
	// Dropping a secrecy tag is declassification: meter it AFTER the
	// capability check passes (an uncapable caller must see the exact
	// pre-budget denial) and BEFORE the label mutates, so an exhausted
	// budget denies with no partial state change. The ledger nil-check
	// comes first so unbudgeted kernels skip the Minus entirely.
	if typ == kernel.Secrecy && t.Kernel().Budget() != nil {
		if err := m.chargeDeclass(t, "lsm.SetTaskLabel", "set_task_label", cur.Minus(l)); err != nil {
			return err
		}
	}
	// Stored as given: permission hooks compare labels by value, so
	// nothing on this path needs an interned copy.
	if typ == kernel.Secrecy {
		s.labels.S = l
	} else {
		s.labels.I = l
	}
	return nil
}

// DropLabelTCB clears the target's labels without capability checks. Only
// a task endorsed with the tcb integrity tag may call it, and only within
// its own process, so a VM can never strip labels from other applications
// (§4.4).
func (m *Module) DropLabelTCB(t, target *kernel.Task) error {
	ts := m.taskState(t)
	if !ts.labels.I.Has(m.tcbTag) {
		return fmt.Errorf("%w: drop_label_tcb requires the tcb integrity tag", kernel.ErrPerm)
	}
	if t.Proc != target.Proc {
		return fmt.Errorf("%w: drop_label_tcb outside caller's process", kernel.ErrPerm)
	}
	tgt := m.taskState(target)
	// The TCB drop declassifies every secrecy tag the target carries;
	// charge them all before the clear commits.
	if err := m.chargeDeclass(t, "lsm.DropLabelTCB", "drop_label_tcb", tgt.labels.S); err != nil {
		return err
	}
	tgt.labels = difc.Labels{}
	return nil
}

// SetLabelTCB sets the target's labels without capability checks, under
// the same restrictions as DropLabelTCB (tcb tag, same process). The
// paper's drop_label_tcb is the labels == {} special case; the trusted VM
// needs the general form to restore a thread to the labels of the parent
// security region on nested-region exit, where the thread may hold neither
// the plus nor minus capabilities for the tags involved (§4.4).
//
// SetLabelTCB is deliberately NOT budget-charged: its only caller is the
// trusted VM's region-exit restore (rt.trySync), and the region exit
// itself is the commit point the runtime charges (rt/thread.go). Charging
// here too would double-bill every nested-region exit.
func (m *Module) SetLabelTCB(t, target *kernel.Task, labels difc.Labels) error {
	ts := m.taskState(t)
	if !ts.labels.I.Has(m.tcbTag) {
		return fmt.Errorf("%w: set_label_tcb requires the tcb integrity tag", kernel.ErrPerm)
	}
	if t.Proc != target.Proc {
		return fmt.Errorf("%w: set_label_tcb outside caller's process", kernel.ErrPerm)
	}
	m.taskState(target).labels = labels
	return nil
}

// DropCapabilities removes the listed capabilities. tmp suspends them
// (restorable); otherwise the drop is permanent, including any suspended
// copy, which implements removeCapability(global=true).
//
// Not budget-charged: shedding a capability loses no protection — it
// strictly narrows what the task can later declassify. The budget meters
// tags leaving secrecy labels, not capability churn.
func (m *Module) DropCapabilities(t *kernel.Task, caps []kernel.Capability, tmp bool) error {
	s := m.taskState(t)
	for _, c := range caps {
		if tmp {
			if s.caps.Has(c.Tag, c.Kind) {
				s.suspended = s.suspended.Grant(c.Tag, c.Kind)
			}
			s.caps = s.caps.Drop(c.Tag, c.Kind)
		} else {
			s.caps = s.caps.Drop(c.Tag, c.Kind)
			s.suspended = s.suspended.Drop(c.Tag, c.Kind)
		}
	}
	return nil
}

// RestoreCapabilities merges suspended capabilities back into the active
// set.
func (m *Module) RestoreCapabilities(t *kernel.Task) error {
	s := m.taskState(t)
	s.caps = s.caps.Union(s.suspended)
	s.suspended = difc.EmptyCapSet
	return nil
}

// capPayload is the opaque blob queued on pipes for capability transfer.
type capPayload struct {
	cap kernel.Capability
}

// WriteCapability queues a capability on the pipe. The sender must hold
// the capability; the flow check against the pipe's label follows pipe
// semantics — an illegal flow silently drops the capability so the result
// cannot leak information.
func (m *Module) WriteCapability(t *kernel.Task, c kernel.Capability, f *kernel.File) error {
	s := m.taskState(t)
	if !s.caps.Has(c.Tag, c.Kind) {
		return fmt.Errorf("%w: sender does not hold %v%v", kernel.ErrPerm, c.Tag, c.Kind)
	}
	pipeLabels := m.inodeState(f.Inode).labels
	if err := difc.CheckFlow("write", s.labels, pipeLabels); err != nil {
		// Silently dropped: the caller sees success so the result cannot
		// leak information — but the drop IS a flow denial, and it is
		// exactly the kind of invisible decision provenance exists for.
		// The kernel's hook gate never sees an error here, so the module
		// emits the event itself.
		if m.tel != nil && m.tel.Active() {
			m.tel.EmitDeny(telemetry.LayerLSM, "lsm.WriteCapability.silent-drop",
				"write_capability", uint64(t.TID), t.Proc, err)
		}
		//govet:failopen — the silent success IS the decision: pipe
		// semantics require the sender to observe success so the verdict
		// cannot leak information (see the doc comment above).
		return nil
	}
	f.Inode.PushCap(&capPayload{cap: c})
	return nil
}

// ReadCapability claims a queued capability if the flow from the pipe to
// the reader is legal.
func (m *Module) ReadCapability(t *kernel.Task, f *kernel.File) (kernel.Capability, error) {
	s := m.taskState(t)
	pipeLabels := m.inodeState(f.Inode).labels
	if err := difc.CheckFlow("read", pipeLabels, s.labels); err != nil {
		return kernel.Capability{}, fmt.Errorf("%w: %w", kernel.ErrAccess, err)
	}
	v := f.Inode.PopCap()
	if v == nil {
		return kernel.Capability{}, kernel.ErrAgain
	}
	p := v.(*capPayload)
	s.caps = s.caps.Grant(p.cap.Tag, p.cap.Kind)
	return p.cap, nil
}
