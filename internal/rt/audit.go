package rt

import (
	"errors"
	"fmt"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// Audit support. Laminar's pitch includes auditability: security-relevant
// behaviour is confined to security regions and explicit declassification
// points, so a reviewer can watch exactly those events.
//
// Since the unified telemetry subsystem (internal/telemetry) this file is
// a thin adapter: the VM's events are recorded in the kernel's telemetry
// recorder — one ring for the whole stack — and the legacy per-VM hook
// API (SetAudit) is kept as a compatibility view over that stream. New
// code should subscribe to the recorder (kernel.Telemetry().Subscribe)
// or read its flight ring; the hook remains supported because it is part
// of the public laminar API.

// EventKind classifies audit events.
type EventKind uint8

// Audit event kinds. EvKernelDeny extends the original VM-side kinds
// with kernel/LSM-layer denials: with a hook installed, denials recorded
// by the kernel's enforcement points for this VM's process are forwarded
// into the same audit stream, so one hook observes both layers.
const (
	EvRegionEnter EventKind = iota
	EvRegionExit
	EvViolation
	EvCopyAndLabel
	EvCapabilityGained
	EvCapabilityDropped
	EvKernelDeny
	// EvNetDeny reports a denial recorded by the cross-kernel labeled
	// transport (internal/netlabel): handshake rejections, malformed or
	// version-mismatched frames, and faulted links that failed closed.
	// Policy denials on remote flows still arrive as EvKernelDeny — the
	// receiving kernel's LSM checks a remote Recv exactly like a local
	// one — so EvNetDeny is specifically the transport's own provenance.
	EvNetDeny
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRegionEnter:
		return "region-enter"
	case EvRegionExit:
		return "region-exit"
	case EvViolation:
		return "violation"
	case EvCopyAndLabel:
		return "copy-and-label"
	case EvCapabilityGained:
		return "capability-gained"
	case EvCapabilityDropped:
		return "capability-dropped"
	case EvKernelDeny:
		return "kernel-deny"
	case EvNetDeny:
		return "net-deny"
	default:
		return "unknown"
	}
}

// Event is one audit record.
type Event struct {
	Kind   EventKind
	Thread uint64      // kernel TID of the acting thread
	Labels difc.Labels // region labels in force
	// Op names the checked operation for violations and kernel denials
	// ("read", "write", "signal", ...).
	Op string
	// From and To carry label pairs for CopyAndLabel; Tag/CapKind carry
	// capability movements; Err carries violations and kernel denials.
	From difc.Labels
	To   difc.Labels
	Tag  difc.Tag
	Cap  difc.CapKind
	Err  error
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EvCopyAndLabel:
		return fmt.Sprintf("[tid %d] %s %v -> %v", e.Thread, e.Kind, e.From, e.To)
	case EvCapabilityGained, EvCapabilityDropped:
		return fmt.Sprintf("[tid %d] %s %v%v", e.Thread, e.Kind, e.Tag, e.Cap)
	case EvViolation:
		return fmt.Sprintf("[tid %d] %s in %v: %v", e.Thread, e.Kind, e.Labels, e.Err)
	case EvKernelDeny, EvNetDeny:
		return fmt.Sprintf("[tid %d] %s %s: %v", e.Thread, e.Kind, e.Op, e.Err)
	default:
		return fmt.Sprintf("[tid %d] %s %v", e.Thread, e.Kind, e.Labels)
	}
}

// SetAudit installs the audit hook (nil disables). The hook runs inline
// on the acting thread; it must not call back into the VM.
//
// Deprecated-style note: SetAudit predates internal/telemetry and is now
// an adapter over it. It still receives every VM-side event, and — when
// the kernel has a telemetry recorder — kernel/LSM denials for this VM's
// process as EvKernelDeny events. Prefer the telemetry recorder for new
// consumers: it adds rule provenance, interned label operands, metrics
// and the flight ring.
func (vm *VM) SetAudit(fn func(Event)) {
	if vm.auditCancel != nil {
		vm.auditCancel()
		vm.auditCancel = nil
	}
	vm.audit = fn
	if fn == nil || vm.rec == nil {
		return
	}
	// Forward kernel-layer denials for this process into the hook. The
	// filter on Layer keeps VM-side events (LayerRT) from echoing: those
	// reach the hook directly in emit.
	proc := vm.tcb.Proc
	vm.auditCancel = vm.rec.Subscribe(func(te telemetry.Event) {
		if te.Kind != telemetry.KindDeny || te.Proc != proc {
			return
		}
		var kind EventKind
		switch te.Layer {
		case telemetry.LayerKernel, telemetry.LayerLSM:
			kind = EvKernelDeny
		case telemetry.LayerNet:
			kind = EvNetDeny
		default:
			return
		}
		vm.audit(Event{
			Kind:   kind,
			Thread: te.TID,
			Op:     te.Op,
			Err:    errors.New(te.Detail),
		})
	})
}

// observed reports whether any consumer would see an emitted event. The
// region enter and exit paths test it before building their Event, a
// struct of several hundred bytes.
func (vm *VM) observed() bool {
	return vm.audit != nil || (vm.rec != nil && vm.rec.Active())
}

// emit delivers an event to the legacy hook and mirrors it into the
// telemetry recorder. With no hook and telemetry off, the cost is two
// nil/atomic checks.
func (vm *VM) emit(e Event) {
	if vm.audit != nil {
		vm.audit(e)
	}
	if vm.rec == nil || !vm.rec.Active() {
		return
	}
	te := telemetry.Event{
		Layer: telemetry.LayerRT,
		TID:   e.Thread,
		Proc:  vm.tcb.Proc,
		Op:    e.Op,
	}
	switch e.Kind {
	case EvViolation:
		// Classify through the shared path so barrier denials carry the
		// violated rule and tag delta exactly like kernel denials.
		te = telemetry.DenyEvent(telemetry.LayerRT, "rt.region.check", e.Op, e.Thread, vm.tcb.Proc, e.Err)
	case EvRegionEnter:
		te.Kind = telemetry.KindRegionEnter
		te.Site = "rt.region.enter"
		te.SrcS = difc.Intern(e.Labels.S).InternedID()
		te.SrcI = difc.Intern(e.Labels.I).InternedID()
	case EvRegionExit:
		te.Kind = telemetry.KindRegionExit
		te.Site = "rt.region.exit"
		te.SrcS = difc.Intern(e.Labels.S).InternedID()
		te.SrcI = difc.Intern(e.Labels.I).InternedID()
	case EvCopyAndLabel:
		te.Kind = telemetry.KindCopyAndLabel
		te.Site = "rt.copyAndLabel"
		from, to := difc.InternLabels(e.From), difc.InternLabels(e.To)
		te.SrcS, te.SrcI = from.S.InternedID(), from.I.InternedID()
		te.DstS, te.DstI = to.S.InternedID(), to.I.InternedID()
	case EvCapabilityGained:
		te.Kind = telemetry.KindCapGained
		te.Site = "rt.capability"
		te.Tag, te.Cap = e.Tag, e.Cap
	case EvCapabilityDropped:
		te.Kind = telemetry.KindCapDropped
		te.Site = "rt.capability"
		te.Tag, te.Cap = e.Tag, e.Cap
	default:
		return
	}
	vm.rec.Emit(te)
}
