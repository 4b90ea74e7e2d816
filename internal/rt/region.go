package rt

import (
	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// Region is an active security region: the paper's lexically scoped code
// block with a secrecy label, an integrity label and a capability set
// (§4.3). A Region value is only valid inside the Secure call that created
// it; the Figure 2 library API lives here.
type Region struct {
	thread *Thread
	labels difc.Labels
	caps   difc.CapSet
	parent *Region
}

// Thread returns the thread executing the region.
func (r *Region) Thread() *Thread { return r.thread }

// Labels returns the region's label pair (getCurrentLabel for both types).
func (r *Region) Labels() difc.Labels { return r.labels }

// SecrecyLabel implements getCurrentLabel(SECRECY).
func (r *Region) SecrecyLabel() difc.Label { return r.labels.S }

// IntegrityLabel implements getCurrentLabel(INTEGRITY).
func (r *Region) IntegrityLabel() difc.Label { return r.labels.I }

// Caps returns the region's capability set.
func (r *Region) Caps() difc.CapSet { return r.caps }

// CreateAndAddCapability allocates a fresh tag and grants the thread both
// capabilities (Figure 2). By default a capability gained inside a region
// is retained on exit (§4.4), so the grant lands in the thread's base set
// as well as the region's.
func (r *Region) CreateAndAddCapability() (difc.Tag, error) {
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

// check verifies an information flow and panics with *Violation on
// failure, modeling the VM-thrown exception that transfers control to the
// region's catch block.
func (r *Region) check(op string, err error) {
	if err != nil {
		r.thread.vm.emit(Event{Kind: EvViolation, Thread: uint64(r.thread.task.TID), Labels: r.labels, Op: op, Err: err})
		panic(&Violation{Op: op, Err: err})
	}
}

// --- labeled file and OS access from inside a region ---
// The VM sets the kernel task's labels before the first syscall in the
// region (lazy sync, §4.4), then the Laminar LSM mediates the operation.

// OpenFile opens a file with the region's labels in force.
func (r *Region) OpenFile(path string, flags kernel.OpenFlag) (kernel.FD, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Open(r.thread.task, path, flags)
}

// CreateFileLabeled pre-creates a labeled file (create_file_labeled).
func (r *Region) CreateFileLabeled(path string, mode kernel.Mode, labels difc.Labels) (kernel.FD, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.CreateFileLabeled(r.thread.task, path, mode, labels)
}

// ReadFile reads from an open descriptor under the region's labels.
func (r *Region) ReadFile(fd kernel.FD, buf []byte) (int, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Read(r.thread.task, fd, buf)
}

// WriteFile writes to an open descriptor under the region's labels.
func (r *Region) WriteFile(fd kernel.FD, data []byte) (int, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Write(r.thread.task, fd, data)
}

// WriteFileVec writes a vector of chunks to an open descriptor as one
// batched syscall: one label sync, one kernel entry, one security
// verdict for the whole batch (see kernel.WriteVec for why one verdict
// is equivalent to per-element checks). Regions with bursty output use
// it to amortize the per-operation barrier cost.
func (r *Region) WriteFileVec(fd kernel.FD, chunks [][]byte) (int, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.WriteVec(r.thread.task, fd, chunks)
}

// CloseFile closes the descriptor.
func (r *Region) CloseFile(fd kernel.FD) error {
	return r.thread.vm.k.Close(r.thread.task, fd)
}

// Send transmits on a socket endpoint under the region's labels; illegal
// flows drop silently, like pipes (§5.2).
func (r *Region) Send(fd kernel.FD, data []byte) (int, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Send(r.thread.task, fd, data)
}

// Recv receives from a socket endpoint under the region's labels.
func (r *Region) Recv(fd kernel.FD, buf []byte) (int, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Recv(r.thread.task, fd, buf)
}

// Socketpair creates a connected socket pair; the connection carries the
// region's labels (it is created by the tainted thread).
func (r *Region) Socketpair() (kernel.FD, kernel.FD, error) {
	r.thread.ensureSynced()
	return r.thread.vm.k.Socketpair(r.thread.task)
}
