package rt

import (
	"errors"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// Region is an active security region: the paper's lexically scoped code
// block with a secrecy label, an integrity label and a capability set
// (§4.3); the Figure 2 library API lives here.
//
// A Region acts only while it is its thread's innermost active region:
// inside its own body or catch block, and not inside a nested region.
// Every barrier, allocation, relabeling, capability and file or socket
// call made through a handle that is not raises *Violation wrapping
// ErrRegionInactive, as the paper's barriers check each access against
// the thread's current region (§5.1). The rule is what lets the thread
// reuse one Region per nesting depth: a handle kept past its Secure call
// can never act with labels it no longer holds.
type Region struct {
	thread *Thread
	labels difc.Labels
	caps   difc.CapSet
	parent *Region
	child  *Region // the reusable frame of regions nested in this one
}

// ErrRegionInactive is the error of the *Violation raised when a Region
// handle acts while it is not its thread's innermost active region.
var ErrRegionInactive = errors.New("region handle used outside its own region")

// act raises *Violation unless r is its thread's innermost active
// region. Every acting Region method calls it first.
func (r *Region) act(op string) {
	if r != r.thread.region {
		r.thread.raise(op, ErrRegionInactive)
	}
}

// raise reports a violation and raises it as *Violation, modeling the
// VM-thrown exception that transfers control to the region's catch
// block. The event carries the labels actually in force on the thread
// (for a stale handle, not the handle's own).
func (t *Thread) raise(op string, err error) {
	t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Labels: t.Labels(), Op: op, Err: err})
	panic(&Violation{Op: op, Err: err})
}

// Labels returns the region's label pair (getCurrentLabel for both types).
func (r *Region) Labels() difc.Labels { return r.labels }

// CreateAndAddCapability allocates a fresh tag and grants the thread both
// capabilities (Figure 2). By default a capability gained inside a region
// is retained on exit (§4.4), so the grant lands in the thread's base set
// as well as the region's.
func (r *Region) CreateAndAddCapability() (difc.Tag, error) {
	r.act("alloc_tag")
	tag, err := r.thread.vm.k.AllocTag(r.thread.task)
	if err != nil {
		return difc.InvalidTag, err
	}
	for reg := r; reg != nil; reg = reg.parent {
		reg.caps = reg.caps.Grant(tag, difc.CapBoth)
	}
	r.thread.caps = r.thread.caps.Grant(tag, difc.CapBoth)
	r.thread.vm.emit(Event{Kind: EvCapabilityGained, Thread: uint64(r.thread.task.TID), Labels: r.labels, Tag: tag, Cap: difc.CapBoth})
	return tag, nil
}

// RemoveCapability drops a capability (Figure 2). With global=false the
// drop lasts for the scope of this region: the enclosing context keeps the
// capability. With global=true the capability is gone permanently, from
// every enclosing region and the thread's base set.
func (r *Region) RemoveCapability(tag difc.Tag, kind difc.CapKind, global bool) error {
	r.act("drop_capabilities")
	c := []kernel.Capability{{Tag: tag, Kind: kind}}
	if err := r.thread.vm.k.DropCapabilities(r.thread.task, c, !global); err != nil {
		return err
	}
	r.caps = r.caps.Drop(tag, kind)
	if global {
		for reg := r.parent; reg != nil; reg = reg.parent {
			reg.caps = reg.caps.Drop(tag, kind)
		}
		r.thread.caps = r.thread.caps.Drop(tag, kind)
	}
	r.thread.vm.emit(Event{Kind: EvCapabilityDropped, Thread: uint64(r.thread.task.TID), Labels: r.labels, Tag: tag, Cap: kind})
	return nil
}

// check raises err, if any, on the region's thread; r is active.
func (r *Region) check(op string, err error) {
	if err != nil {
		r.thread.raise(op, err)
	}
}

// --- labeled file and OS access from inside a region ---
// The VM sets the kernel task's labels before the first syscall in the
// region (lazy sync, §4.4), then the Laminar LSM mediates the operation.

// OpenFile opens a file with the region's labels in force.
func (r *Region) OpenFile(path string, flags kernel.OpenFlag) (kernel.FD, error) {
	r.act("open")
	r.thread.ensureSynced()
	return r.thread.vm.k.Open(r.thread.task, path, flags)
}

// CreateFileLabeled pre-creates a labeled file (create_file_labeled).
func (r *Region) CreateFileLabeled(path string, mode kernel.Mode, labels difc.Labels) (kernel.FD, error) {
	r.act("create")
	r.thread.ensureSynced()
	return r.thread.vm.k.CreateFileLabeled(r.thread.task, path, mode, labels)
}

// ReadFile reads from an open descriptor under the region's labels.
func (r *Region) ReadFile(fd kernel.FD, buf []byte) (int, error) {
	r.act("read")
	r.thread.ensureSynced()
	return r.thread.vm.k.Read(r.thread.task, fd, buf)
}

// WriteFile writes to an open descriptor under the region's labels.
func (r *Region) WriteFile(fd kernel.FD, data []byte) (int, error) {
	r.act("write")
	r.thread.ensureSynced()
	return r.thread.vm.k.Write(r.thread.task, fd, data)
}

// WriteFileVec writes a vector of chunks to an open descriptor as one
// batched syscall: one label sync, one kernel entry, one security
// verdict for the whole batch (see kernel.WriteVec for why one verdict
// is equivalent to per-element checks). Regions with bursty output use
// it to amortize the per-operation barrier cost.
func (r *Region) WriteFileVec(fd kernel.FD, chunks [][]byte) (int, error) {
	r.act("write")
	r.thread.ensureSynced()
	return r.thread.vm.k.WriteVec(r.thread.task, fd, chunks)
}

// CloseFile closes the descriptor.
func (r *Region) CloseFile(fd kernel.FD) error {
	r.act("close")
	return r.thread.vm.k.Close(r.thread.task, fd)
}

// Send transmits on a socket endpoint under the region's labels; illegal
// flows drop silently, like pipes (§5.2).
func (r *Region) Send(fd kernel.FD, data []byte) (int, error) {
	r.act("send")
	r.thread.ensureSynced()
	return r.thread.vm.k.Send(r.thread.task, fd, data)
}

// Recv receives from a socket endpoint under the region's labels.
func (r *Region) Recv(fd kernel.FD, buf []byte) (int, error) {
	r.act("recv")
	r.thread.ensureSynced()
	return r.thread.vm.k.Recv(r.thread.task, fd, buf)
}

// Socketpair creates a connected socket pair; the connection carries the
// region's labels (it is created by the tainted thread).
func (r *Region) Socketpair() (kernel.FD, kernel.FD, error) {
	r.act("socketpair")
	r.thread.ensureSynced()
	return r.thread.vm.k.Socketpair(r.thread.task)
}
