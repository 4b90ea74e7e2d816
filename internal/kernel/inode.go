package kernel

import (
	"sort"
	"sync"
	"sync/atomic"
)

// InodeType distinguishes the kinds of filesystem objects the simulated
// VFS supports.
type InodeType uint8

// Inode types.
const (
	TypeRegular InodeType = iota
	TypeDir
	TypePipe
	TypeDevNull // writes vanish, reads return EOF-like zero count
	TypeDevZero // reads produce zero bytes forever
)

// String names the inode type.
func (t InodeType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "dir"
	case TypePipe:
		return "pipe"
	case TypeDevNull:
		return "devnull"
	case TypeDevZero:
		return "devzero"
	default:
		return "unknown"
	}
}

// Mode is a simplified permission mode (unused bits are preserved for
// realism but the simulated kernel enforces DIFC, not rwx bits).
type Mode uint32

// Ino is an inode number, unique for the lifetime of the kernel.
type Ino uint64

var inoCounter atomic.Uint64

// Inode is the simulated VFS inode. The label of an inode protects its
// contents and metadata except for its name, which the parent directory's
// label protects (§5.2). Labels live behind the opaque Security field,
// managed by the registered SecurityModule, mirroring the security blob
// LSM attaches to struct inode.
type Inode struct {
	Ino    Ino
	Type   InodeType
	Mode   Mode
	parent *Inode // nil for root and for pipes

	// mu guards the mutable contents below (data, children, xattrs, pipe
	// buffer, nlink) under the sharded discipline; parent locks are taken
	// before child locks, and path walks hold at most one at a time
	// (locking.go). The Security blob is NOT guarded here: it is attached
	// before the inode is published and treated as immutable-in-place so
	// permission hooks can read it without inode locks.
	mu sync.RWMutex

	// Security is the LSM-managed security blob. The kernel never looks
	// inside it.
	Security any

	// Regular file state.
	data []byte

	// Directory state.
	children map[string]*Inode

	// Pipe state.
	pipe *pipeBuf

	// xattrs persist labels across "reboots" of the security module, as
	// ext3 extended attributes do for Laminar.
	xattrs map[string][]byte

	nlink int
}

func newInode(t InodeType, mode Mode) *Inode {
	ino := &Inode{
		Ino:   Ino(inoCounter.Add(1)),
		Type:  t,
		Mode:  mode,
		nlink: 1,
	}
	if t == TypeDir {
		ino.children = make(map[string]*Inode)
	}
	if t == TypePipe {
		ino.pipe = newPipeBuf()
	}
	return ino
}

// Size reports the length in bytes of a regular file's contents.
func (i *Inode) Size() int { return len(i.data) }

// IsDir reports whether the inode is a directory.
func (i *Inode) IsDir() bool { return i.Type == TypeDir }

// SetXattr stores an extended attribute on the inode. The security module
// uses this to persist labels; it is called only on inodes not yet
// reachable by other tasks (creation, with the parent directory locked)
// or while the kernel is quiescent (boot labeling, crash recovery).
func (i *Inode) SetXattr(name string, value []byte) {
	if i.xattrs == nil {
		i.xattrs = make(map[string][]byte)
	}
	v := make([]byte, len(value))
	copy(v, value)
	i.xattrs[name] = v
}

// RemoveXattr deletes an extended attribute. Same calling contexts as
// SetXattr; the security module uses this to clear shadow label records.
func (i *Inode) RemoveXattr(name string) {
	delete(i.xattrs, name)
}

// GetXattr fetches an extended attribute; the bool reports presence.
func (i *Inode) GetXattr(name string) ([]byte, bool) {
	v, ok := i.xattrs[name]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// ListXattrs returns the attribute names in sorted order.
func (i *Inode) ListXattrs() []string {
	names := make([]string, 0, len(i.xattrs))
	for n := range i.xattrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Child returns the named directory entry without permission checks; it
// exists for the security module's boot-time labeling and for tests.
func (i *Inode) Child(name string) (*Inode, bool) {
	c, ok := i.children[name]
	return c, ok
}

// PushCap queues an opaque capability payload on a pipe inode (used by the
// security module's write_capability implementation).
func (i *Inode) PushCap(payload any) {
	if i.pipe != nil {
		i.pipe.capQueue = append(i.pipe.capQueue, payload)
	}
}

// PopCap dequeues the oldest capability payload, or nil when none is
// queued or the inode is not a pipe.
func (i *Inode) PopCap() any {
	if i.pipe == nil || len(i.pipe.capQueue) == 0 {
		return nil
	}
	p := i.pipe.capQueue[0]
	i.pipe.capQueue = i.pipe.capQueue[1:]
	return p
}

// childNames returns a sorted list of directory entries.
func (i *Inode) childNames() []string {
	names := make([]string, 0, len(i.children))
	for n := range i.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stat is the metadata returned by the stat syscall.
type Stat struct {
	Ino   Ino
	Type  InodeType
	Mode  Mode
	Size  int
	Nlink int
}
