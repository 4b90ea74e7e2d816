package rt

import (
	"fmt"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// Thread is a VM-level principal: a kernel task plus the VM's cached view
// of its labels and capabilities. Threads are the only principals in
// Laminar (§4.2); outside security regions a thread always has empty
// labels, and all access to labeled data must happen inside a region.
//
// A Thread must be driven by one goroutine at a time, exactly as a Java
// thread has one execution context. The VM caches the thread's
// capabilities so barrier checks inside regions avoid kernel round trips
// (§5.1: "the JVM then caches a copy of the current capabilities").
type Thread struct {
	vm   *VM
	task *kernel.Task

	// region is the innermost active security region (nil outside).
	region *Region

	// frame is the reusable Region of outermost regions; each frame
	// links the reusable Region of the depth below it (Region.child).
	// An entry fills its depth's frame and its exit releases it.
	frame *Region

	// caps caches the thread's base capability set (kernel authoritative).
	caps difc.CapSet

	// kernelSynced records whether the kernel task currently carries this
	// thread's effective labels; labels are pushed lazily, before the
	// first syscall in a region (§4.4 optimization).
	kernelSynced bool
}

// VM returns the runtime that owns the thread.
func (t *Thread) VM() *VM { return t.vm }

// Task exposes the underlying kernel task (tests and trusted setup only).
func (t *Thread) Task() *kernel.Task { return t.task }

// Labels reports the thread's current effective labels: the innermost
// region's labels, or empty outside regions.
func (t *Thread) Labels() difc.Labels { return *t.labels() }

// inRegion reports whether the thread is executing inside a security
// region. This is the check a dynamic barrier performs on every access.
func (t *Thread) inRegion() bool {
	t.vm.stats.DynamicChecks.Add(1)
	return t.region != nil
}

// Region returns the innermost active region, or nil.
func (t *Thread) Region() *Region { return t.region }

// Fork spawns a new VM thread from t. keep restricts the capabilities the
// child inherits (nil = all of the thread's base capabilities); the child
// principal's capabilities are always a subset of its parent's (§4.4).
// Forking inside a security region is rejected: the paper's hierarchy
// creates threads from stable principal states.
func (t *Thread) Fork(keep []kernel.Capability) (*Thread, error) {
	if t.region != nil {
		return nil, fmt.Errorf("rt: fork inside a security region")
	}
	task, err := t.vm.k.Fork(t.task, keep)
	if err != nil {
		return nil, err
	}
	return &Thread{vm: t.vm, task: task, caps: t.vm.mod.TaskCaps(task)}, nil
}

// Exit terminates the thread's kernel task.
func (t *Thread) Exit() {
	t.vm.k.Exit(t.task)
}

// CreateTag allocates a fresh tag via alloc_tag; the thread gains both
// capabilities (Figure 2's createAndAddCapability outside a region).
func (t *Thread) CreateTag() (difc.Tag, error) {
	tag, err := t.vm.k.AllocTag(t.task)
	if err != nil {
		return difc.InvalidTag, err
	}
	t.caps = t.caps.Grant(tag, difc.CapBoth)
	return tag, nil
}

// DropCapability permanently removes a capability from the thread's base
// set (removeCapability with global=true, outside regions).
func (t *Thread) DropCapability(tag difc.Tag, kind difc.CapKind) error {
	if err := t.vm.k.DropCapabilities(t.task, []kernel.Capability{{Tag: tag, Kind: kind}}, false); err != nil {
		return err
	}
	t.caps = t.caps.Drop(tag, kind)
	return nil
}

// GrantCapability installs a capability received out of band (login,
// trusted setup). Test and setup paths only — untrusted code gains
// capabilities exclusively through alloc_tag, fork and write_capability.
func (t *Thread) GrantCapability(tag difc.Tag, kind difc.CapKind) {
	t.vm.mod.GrantCapability(t.task, tag, kind)
	t.caps = t.caps.Grant(tag, kind)
}

// SendCapability transfers a capability to another principal over a pipe
// (write_capability).
func (t *Thread) SendCapability(c kernel.Capability, fd kernel.FD) error {
	t.ensureSynced()
	return t.vm.k.WriteCapability(t.task, c, fd)
}

// ReceiveCapability claims a capability queued on the pipe.
func (t *Thread) ReceiveCapability(fd kernel.FD) (kernel.Capability, error) {
	t.ensureSynced()
	c, err := t.vm.k.ReadCapability(t.task, fd)
	if err != nil {
		return c, err
	}
	t.caps = t.caps.Grant(c.Tag, c.Kind)
	return c, nil
}

// trySync pushes the thread's effective labels to its kernel task if they
// are stale, reporting failure to the caller (the tcb path can fail under
// injected faults, not just VM misconfiguration).
func (t *Thread) trySync() error {
	if t.kernelSynced {
		return nil
	}
	if err := t.vm.setKernelLabels(t, t.Labels()); err != nil {
		return err
	}
	t.kernelSynced = true
	return nil
}

// ensureSynced is trySync for call sites with no error path: a failed sync
// surfaces as a *Violation panic, which region machinery catches.
func (t *Thread) ensureSynced() {
	if err := t.trySync(); err != nil {
		panic(&Violation{Op: "set_task_label", Err: err})
	}
}

// Secure executes body inside a security region with the given labels and
// capabilities, implementing §4.3:
//
//   - Entry enforces SR ⊆ (Cp+ ∪ SP), IR ⊆ (Cp+ ∪ IP) and CR ⊆ CP; a
//     violation returns an error before body runs.
//   - body runs with the thread's labels and capabilities replaced by the
//     region's. Panics in body (including *Violation raised by barriers)
//     transfer to catch, which runs with the region's labels still in
//     force — the paper's mandatory secure/catch pairing that lets the
//     program restore invariants.
//   - All exceptions are suppressed, including panics inside catch;
//     control always continues after Secure (fall-through-only exit), so
//     code outside the region cannot observe which control path ran.
//   - On exit the thread's previous labels and capabilities return, via
//     the tcb thread when the thread lacks the minus capabilities.
//
// catch may be nil when the body cannot raise (the paper still requires
// the block syntactically; nil here means an empty catch block).
func (t *Thread) Secure(labels difc.Labels, caps difc.CapSet, body func(*Region), catch func(*Region, any)) error {
	cur, curCaps := t.current()
	if err := difc.CheckEnterRegion(cur, curCaps, &labels, &caps); err != nil {
		// A refused region entry is a denial like any other: record the
		// structured ChangeError (which names the violated condition and
		// the offending tags) before reporting it to the caller.
		t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Labels: labels, Op: "region-enter", Err: err})
		return &regionEntryError{labels: labels, caps: caps, cur: *cur, curCaps: *curCaps, err: err}
	}
	r := t.nextFrame()
	r.labels, r.caps, r.parent = labels, caps, t.region
	t.vm.stats.RegionsEntered.Add(1)
	if t.vm.observed() {
		t.vm.emit(Event{Kind: EvRegionEnter, Thread: uint64(t.task.TID), Labels: labels})
	}
	// Only an outermost region's time is added to RegionNanos (a nested
	// region's time is already inside its parent's), so only it reads the
	// clock, and only the monotonic one: time.Since on a time that
	// carries a monotonic reading never reads the wall clock.
	var start time.Duration
	if r.parent == nil {
		start = time.Since(epoch)
	}
	prevSynced := t.kernelSynced
	t.region = r
	t.kernelSynced = false

	// The exit defer is installed BEFORE anything that can fail or panic
	// (including the eager entry sync below): whatever happens inside the
	// region — a panic with an arbitrary value, a *Violation, an injected
	// fault — this path runs and the thread leaves with the parent's VM
	// and kernel labels, or does not leave at all.
	defer func() {
		// Region exit: restore parent labels/caps. Globally dropped
		// capabilities stay dropped (handled by RemoveCapability). If the
		// kernel task was given the region's labels (a syscall happened,
		// or eager mode), it must be reset to the parent labels now — the
		// tcb path handles tags the thread cannot drop itself. From here
		// on r no longer acts (Region.act), and the next entry at its
		// depth may refill it.
		syncedInRegion := t.kernelSynced
		t.region = r.parent
		// Budget charge (ISSUE 10): leaving the region is THE commit
		// point where every secrecy tag the region held and the parent
		// context lacks stops protecting the thread's effects — the
		// declassification the paper's nested-declassify pattern
		// (Figure 7) builds on. Charge each such tag one unit (local
		// context, peer 0) BEFORE the label restore runs; the restore
		// itself (SetLabelTCB via trySync) is deliberately uncharged so
		// the exit bills once. Exhaustion fails closed exactly like a
		// failed restore: the thread cannot legally exist outside the
		// region, so it dies here.
		if led := t.vm.k.Budget(); led != nil {
			if dropped := r.labels.S.Minus(t.Labels().S); !dropped.IsEmpty() {
				if err := led.ChargeLabel("region_exit", dropped, 0, 1); err != nil {
					if rec := t.vm.k.Telemetry(); rec != nil && rec.Active() {
						rec.EmitDeny(telemetry.LayerBudget, "rt.Secure.exit", "region_exit",
							uint64(t.task.TID), t.task.Proc, err)
					}
					t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Labels: labels, Err: err})
					t.vm.k.Exit(t.task)
				}
			}
		}
		if syncedInRegion || t.vm.EagerSync {
			t.kernelSynced = false
			if err := t.trySync(); err != nil {
				// The kernel task may still carry the region's labels and
				// the restore path is gone. Fail closed: kill the
				// principal rather than let it keep running with labels
				// it could not legally hold outside the region.
				t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Labels: labels, Err: err})
				t.vm.k.Exit(t.task)
			}
		} else {
			t.kernelSynced = prevSynced
		}
		if r.parent == nil {
			// The second monotonic read closes the interval. Telemetry
			// reuses it; it adds no read of its own.
			d := time.Since(epoch) - start
			t.vm.stats.RegionNanos.Add(int64(d))
			if t.vm.recording() {
				t.vm.rec.M.ObserveLayer(telemetry.LayerRT, d)
			}
		}
		if t.vm.observed() {
			t.vm.emit(Event{Kind: EvRegionExit, Thread: uint64(t.task.TID), Labels: labels})
		}
	}()

	if t.vm.EagerSync {
		if err := t.trySync(); err != nil {
			// Entry sync failed before body ran: report the failure; the
			// deferred exit path above restores the parent state.
			return fmt.Errorf("rt: security region entry label sync: %w", err)
		}
	}

	func() {
		defer func() {
			if e := recover(); e != nil {
				// Exception inside the region: run the catch block with
				// the region's labels, then suppress everything —
				// including panics from catch itself (§4.3.3).
				if catch != nil {
					func() {
						defer func() { recover() }()
						catch(r, e)
					}()
				}
			}
		}()
		body(r)
	}()
	return nil
}

// current returns the thread's effective labels and capabilities by
// pointer, for the region-entry check: the innermost region's own, or
// the empty labels and the base set outside regions.
func (t *Thread) current() (*difc.Labels, *difc.CapSet) {
	if r := t.region; r != nil {
		return &r.labels, &r.caps
	}
	return &difc.Unlabeled, &t.caps
}

// labels is current's label half, for the barrier rules.
func (t *Thread) labels() *difc.Labels {
	if r := t.region; r != nil {
		return &r.labels
	}
	return &difc.Unlabeled
}

// nextFrame returns the thread's Region frame for the next nesting
// depth, allocating it on the thread's first entry at that depth. Frames
// are reused: a frame belongs to at most one active region, because only
// the innermost active region enters children and each exit releases its
// depth before the parent continues.
func (t *Thread) nextFrame() *Region {
	slot := &t.frame
	if t.region != nil {
		slot = &t.region.child
	}
	if *slot == nil {
		*slot = &Region{thread: t}
	}
	return *slot
}

// regionEntryError is a refused region entry. It keeps the operands of
// the failed check, which are immutable values, and renders them only
// when Error is called: callers that merely test for a denial, as most
// do, pay for no formatting of (possibly large) labels.
type regionEntryError struct {
	labels  difc.Labels
	caps    difc.CapSet
	cur     difc.Labels
	curCaps difc.CapSet
	err     error // the *difc.ChangeError naming the violated condition
}

func (e *regionEntryError) Error() string {
	return fmt.Sprintf("rt: cannot enter security region %v %v from %v %v: %v", e.labels, e.caps, e.cur, e.curCaps, e.err)
}

// Unwrap exposes the *difc.ChangeError.
func (e *regionEntryError) Unwrap() error { return e.err }
