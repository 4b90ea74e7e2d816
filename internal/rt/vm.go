// Package rt is the Laminar virtual-machine runtime: the trusted component
// that enforces DIFC inside one process's address space (§4, §5.1 of Roy
// et al., PLDI 2009). It provides thread principals, lexically scoped
// security regions with the paper's secure/catch semantics, a labeled
// object space with read/write/allocation barriers, restricted statics,
// and the bridge to the simulated kernel (labels are pushed to the kernel
// task lazily, only when a region performs a system call — the §4.4
// optimization).
//
// The real Laminar modifies Jikes RVM so the JIT inserts barriers at every
// field and array access. Go's runtime cannot be instrumented that way, so
// this package exposes the barriers as an explicit API over rt.Object
// heap values: every access runs exactly the check the paper's compiled
// barrier runs. The MiniJVM substrate (package jvm) adds the
// compiler-inserted-barrier model for the barrier-placement and
// optimization experiments, and runs on this package: its programs run on
// an rt Thread, its secure methods are rt regions, and its barrier
// opcodes apply the same rules (Thread.CheckRead and its siblings,
// CheckOutside) that Object's barriers apply.
package rt

import (
	"fmt"
	"sync/atomic"
	"time"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// VM is the trusted runtime for one process. It owns a tcb-endorsed kernel
// thread used to reset thread labels at region exit, a statics table, and
// the accounting used by the evaluation harness.
type VM struct {
	k   *kernel.Kernel
	mod *lsm.Module
	tcb *kernel.Task

	// EagerSync pushes thread labels to the kernel at every region entry
	// and exit instead of only before syscalls. Disabled by default; the
	// ablation benchmark toggles it.
	EagerSync bool

	statics *staticsTable
	stats   Stats
	audit   func(Event)

	// rec is the kernel's telemetry recorder (nil when the kernel was
	// booted WithoutTelemetry): region lifecycle, barrier denials and
	// declassifications are recorded there alongside the kernel's own
	// enforcement events (audit.go).
	rec *telemetry.Recorder
	// auditCancel unsubscribes the kernel-deny forwarder installed by
	// SetAudit.
	auditCancel func()
}

// Stats counts the dynamic security work the VM performs, feeding the
// Figure 9 overhead breakdown and Table 3's %-time-in-SR column.
type Stats struct {
	RegionsEntered atomic.Uint64
	ReadBarriers   atomic.Uint64
	WriteBarriers  atomic.Uint64
	AllocBarriers  atomic.Uint64
	DynamicChecks  atomic.Uint64 // dynamic-barrier "am I in a region?" checks
	LabelSyncs     atomic.Uint64 // set_task_label / set_label_tcb syscalls
	RegionNanos    atomic.Int64  // wall time spent inside security regions
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.RegionsEntered.Store(0)
	s.ReadBarriers.Store(0)
	s.WriteBarriers.Store(0)
	s.AllocBarriers.Store(0)
	s.DynamicChecks.Store(0)
	s.LabelSyncs.Store(0)
	s.RegionNanos.Store(0)
}

// New creates a VM for a fresh process under the given kernel and module.
// owner is the task (typically a login shell) launching the VM; the VM's
// threads are forked from it, and a dedicated tcb thread is registered
// with the module (§4.4: a single, auditable high-integrity thread).
func New(k *kernel.Kernel, mod *lsm.Module, owner *kernel.Task) (*VM, *Thread, error) {
	main, err := k.Spawn(owner, nil)
	if err != nil {
		return nil, nil, err
	}
	tcb, err := k.Fork(main, []kernel.Capability{})
	if err != nil {
		return nil, nil, err
	}
	mod.RegisterTCBThread(tcb)
	vm := &VM{k: k, mod: mod, tcb: tcb, statics: newStaticsTable(), rec: k.Telemetry()}
	mt := &Thread{vm: vm, task: main, caps: mod.TaskCaps(main)}
	return vm, mt, nil
}

// Kernel returns the kernel this VM runs on.
func (vm *VM) Kernel() *kernel.Kernel { return vm.k }

// Stats exposes the VM's dynamic-check counters.
func (vm *VM) Stats() *Stats { return &vm.stats }

// setKernelLabels pushes labels onto the thread's kernel task using the
// trusted tcb path, which works regardless of the thread's capabilities
// (needed when leaving a region whose tags the thread cannot drop). The
// sync itself is a fault-injection point ("rt.sync"): an injected error
// leaves the kernel task's labels untouched, and an injected crash kills
// the task outright — in both cases the caller must treat the thread's
// kernel labels as unsynchronized.
func (vm *VM) setKernelLabels(t *Thread, labels difc.Labels) error {
	vm.stats.LabelSyncs.Add(1)
	if inj := vm.k.Injector(); inj != nil {
		switch inj.At("rt.sync") {
		case faultinject.Error:
			return fmt.Errorf("%w: injected fault in tcb label sync", kernel.ErrIO)
		case faultinject.Crash:
			vm.k.Exit(t.task)
			return kernel.ErrKilled
		}
	}
	// SetLabelTCB mutates the target task's security blob directly, below
	// the kernel's syscall entry points, so take the kernel's task locks
	// explicitly: under the sharded kernel this serializes the label store
	// against hooks on concurrent syscalls that read the same blob.
	var err error
	vm.k.WithTasksLocked(vm.tcb, t.task, func() {
		err = vm.mod.SetLabelTCB(vm.tcb, t.task, labels)
	})
	return err
}

// epoch is the origin of the region clock. It carries a monotonic
// reading, so time.Since(epoch) reads only the monotonic clock.
var epoch = time.Now()
