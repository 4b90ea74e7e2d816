// Package laminar is the public API of the Laminar reproduction: practical
// fine-grained decentralized information flow control with a single set of
// abstractions for OS resources and heap objects (Roy, Porter, Bond,
// McKinley, Witchel — PLDI 2009).
//
// A program labels data with secrecy and integrity labels and accesses the
// labeled data inside lexically scoped security regions; the trusted
// runtime (package rt) enforces the DIFC rules on every heap access and
// the simulated kernel's Laminar security module (package kernel/lsm)
// enforces them on every file, pipe and signal operation, under one label
// namespace.
//
// Quick start:
//
//	sys := laminar.NewSystem()
//	alice, _ := sys.Login("alice")
//	vm, th, _ := sys.LaunchVM(alice)
//	tag, _ := th.CreateTag()
//	secret := laminar.Labels{S: laminar.NewLabel(tag)}
//	th.Secure(secret, laminar.EmptyCapSet, func(r *laminar.Region) {
//		cal := r.Alloc(nil)            // labeled {S(tag)}
//		r.Set(cal, "monday", "dentist")
//	}, nil)
//
// See the examples/ directory for complete programs, including the
// paper's Alice-and-Bob calendar scenario.
package laminar

import (
	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/rt"
)

// Core model types, re-exported from the internal DIFC package.
type (
	// Tag is a 64-bit token; labels are sets of tags.
	Tag = difc.Tag
	// Label is an immutable set of tags.
	Label = difc.Label
	// Labels pairs a secrecy label with an integrity label.
	Labels = difc.Labels
	// CapSet is a capability set: which tags the holder may add (t+) and
	// drop (t−).
	CapSet = difc.CapSet
	// CapKind selects the plus, minus, or both capabilities of a tag.
	CapKind = difc.CapKind
)

// Runtime types, re-exported from the trusted VM runtime.
type (
	// VM is the trusted runtime for one process.
	VM = rt.VM
	// Thread is a principal: a kernel thread with cached labels.
	Thread = rt.Thread
	// Region is an active security region. It acts only while it is its
	// thread's innermost active region; any other use raises a Violation.
	Region = rt.Region
	// Object is a labeled heap value with field and array parts.
	Object = rt.Object
	// Violation is the panic payload delivered to catch blocks on DIFC
	// check failures.
	Violation = rt.Violation
	// AuditEvent is one record from the VM's audit hook (VM.SetAudit):
	// region entries and exits, violations, declassifications, and
	// capability movements.
	AuditEvent = rt.Event
)

// Audit event kinds, re-exported for hook consumers.
const (
	EvRegionEnter       = rt.EvRegionEnter
	EvRegionExit        = rt.EvRegionExit
	EvViolation         = rt.EvViolation
	EvCopyAndLabel      = rt.EvCopyAndLabel
	EvCapabilityGained  = rt.EvCapabilityGained
	EvCapabilityDropped = rt.EvCapabilityDropped
	// EvKernelDeny reports a kernel/LSM-layer denial for the VM's process,
	// forwarded from the unified telemetry recorder.
	EvKernelDeny = rt.EvKernelDeny
	// EvNetDeny reports a denial recorded by the cross-kernel labeled
	// transport (laminar-netd): handshake rejections, malformed frames,
	// and links that failed closed.
	EvNetDeny = rt.EvNetDeny
)

// Kernel-facing types for labeled file work.
type (
	// Task is a simulated kernel task.
	Task = kernel.Task
	// FD is a file descriptor.
	FD = kernel.FD
	// Capability names one (tag, kind) capability for transfer and drop
	// operations.
	Capability = kernel.Capability
)

// Capability kinds.
const (
	CapPlus  = difc.CapPlus
	CapMinus = difc.CapMinus
	CapBoth  = difc.CapBoth
)

// Open flags for labeled file operations.
const (
	ORead   = kernel.ORead
	OWrite  = kernel.OWrite
	OCreate = kernel.OCreate
	OTrunc  = kernel.OTrunc
	OAppend = kernel.OAppend
)

// EmptyLabel is the label of unlabeled data.
var EmptyLabel = difc.EmptyLabel

// EmptyCapSet holds no capabilities.
var EmptyCapSet = difc.EmptyCapSet

// NewLabel builds a label from tags.
func NewLabel(tags ...Tag) Label { return difc.NewLabel(tags...) }

// NewCapSet builds a capability set from plus and minus tag sets.
func NewCapSet(plus, minus Label) CapSet { return difc.NewCapSet(plus, minus) }

// NewObject allocates an unlabeled heap object (outside regions).
func NewObject() *Object { return rt.NewObject() }

// NewArray allocates an unlabeled array object.
func NewArray(n int) *Object { return rt.NewArray(n) }

// System is a booted Laminar installation: the simulated kernel with the
// Laminar security module loaded and system integrity labels installed.
type System struct {
	k   *kernel.Kernel
	mod *lsm.Module
}

// NewSystem boots a kernel with the Laminar LSM. Extra kernel options
// (e.g. kernel.WithBigLock for differential testing, or
// kernel.WithIOLatency for I/O-bound benchmarks) are applied after the
// module registration.
func NewSystem(opts ...kernel.Option) *System {
	mod := lsm.New()
	k := kernel.New(append([]kernel.Option{kernel.WithSecurityModule(mod)}, opts...)...)
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(k.Telemetry())
	return &System{k: k, mod: mod}
}

// NewSystemWithInjector boots a system whose kernel syscalls, LSM hooks
// and label-persistence path consult the given fault injector (the chaos
// harness uses this; see internal/faultinject). The module's injector is
// installed only after boot labeling, which models firmware that cannot
// fail before the machine is up. Extra kernel options apply as in
// NewSystem.
func NewSystemWithInjector(inj faultinject.Injector, opts ...kernel.Option) *System {
	mod := lsm.New()
	base := []kernel.Option{kernel.WithSecurityModule(mod), kernel.WithFaultInjector(inj)}
	k := kernel.New(append(base, opts...)...)
	mod.InstallSystemIntegrity(k)
	mod.SetFaultInjector(inj)
	mod.SetTelemetry(k.Telemetry())
	return &System{k: k, mod: mod}
}

// Kernel exposes the simulated kernel (syscalls take a *Task).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Module exposes the Laminar security module (label introspection).
func (s *System) Module() *lsm.Module { return s.mod }

// Login creates a login-shell task for user, granting the user's
// persistent capabilities and a home directory.
func (s *System) Login(user string) (*Task, error) {
	return s.mod.Login(s.k, user)
}

// SaveUserCaps persists a user's capability file, as the administrator.
func (s *System) SaveUserCaps(user string, caps CapSet) error {
	return s.mod.SaveUserCaps(s.k, s.k.InitTask(), user, caps)
}

// LaunchVM starts a trusted Laminar VM for the given login task and
// returns it with its main thread.
func (s *System) LaunchVM(owner *Task) (*VM, *Thread, error) {
	return rt.New(s.k, s.mod, owner)
}
