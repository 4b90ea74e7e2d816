package kernel

import (
	"strings"

	"laminar/internal/difc"
)

// This file implements the filesystem syscall surface: path resolution,
// stat, open/close/read/write, create/unlink, mkdir, pipes and the
// labeled-create syscalls. Every operation that touches an inode consults
// the security module hooks, mirroring where the Laminar LSM interposes.
//
// Locking (see locking.go): each syscall runs under the acting task's
// entry lock. Path walks take one directory read-lock at a time, in
// parent→child order; mutations of a directory (create, mkdir, unlink)
// hold that directory's write lock across the lookup-and-modify sequence
// so entries cannot be created or lost between check and update.

// resolve walks path from the task's cwd (or the root for absolute paths)
// down to the final inode. Each directory traversed is subject to an
// InodePermission(MayRead) check, because an entry's name is protected by
// its parent directory's label (§5.2). This is what makes absolute paths
// unreadable to tasks that do not trust the system administrator's
// integrity label.
func (k *Kernel) resolve(t *Task, path string) (*Inode, error) {
	dir, name, err := k.resolveParent(t, path)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return dir, nil
	}
	return k.lookup(t, dir, name)
}

// resolveParent resolves everything but the last component, returning the
// parent directory and the final name. Empty and "." components are
// skipped, so a trailing "/" changes nothing; a path with no components
// left (such as "/" or ".") returns the walk root with name == "".
//
// The walk reads components in place: a component is looked up only
// once a later one shows it is not the last, so lookups, and with them
// the permission checks, run in path order with no split slice.
func (k *Kernel) resolveParent(t *Task, path string) (*Inode, string, error) {
	if path == "" {
		return nil, "", ErrNoEnt
	}
	if len(path) > 4096 {
		return nil, "", ErrNameLong
	}
	cur := t.Cwd
	if path[0] == '/' {
		cur = k.root
	}
	if cur == nil {
		return nil, "", ErrNoEnt
	}
	name := "" // the latest component, not yet looked up
	for rest := path; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, "/")
		if p == "" || p == "." {
			continue
		}
		if name != "" {
			next, err := k.lookup(t, cur, name)
			if err != nil {
				return nil, "", err
			}
			if !next.isDir() {
				return nil, "", ErrNotDir
			}
			cur = next
		}
		name = p
	}
	if name == "" {
		return cur, "", nil
	}
	if !cur.isDir() {
		return nil, "", ErrNotDir
	}
	return cur, name, nil
}

// lookup finds name in dir, charging the directory-read permission check.
// It takes dir's read lock only around the children-map probe, so walks
// hold at most one inode lock at a time.
func (k *Kernel) lookup(t *Task, dir *Inode, name string) (*Inode, error) {
	if err := k.lookupCheck(t, dir); err != nil {
		return nil, err
	}
	if name == ".." {
		if dir.parent == nil {
			return dir, nil
		}
		return dir.parent, nil
	}
	held := k.rlockInode(dir)
	child, ok := dir.children[name]
	held.Unlock()
	if !ok {
		return nil, ErrNoEnt
	}
	return child, nil
}

// lookupCheck runs the directory-read permission gate shared by lookup
// and lookupIn.
func (k *Kernel) lookupCheck(t *Task, dir *Inode) error {
	if !dir.isDir() {
		return ErrNotDir
	}
	return k.inodePermission(t, dir, MayRead)
}

// lookupIn is lookup for callers that already hold dir's write lock
// (atomic lookup-and-modify in create/unlink paths).
func (k *Kernel) lookupIn(t *Task, dir *Inode, name string) (*Inode, error) {
	if err := k.lookupCheck(t, dir); err != nil {
		return nil, err
	}
	if name == ".." {
		if dir.parent == nil {
			return dir, nil
		}
		return dir.parent, nil
	}
	child, ok := dir.children[name]
	if !ok {
		return nil, ErrNoEnt
	}
	return child, nil
}

// mkdirInternal creates a directory bypassing all hooks; used only during
// boot before any principal exists.
func (k *Kernel) mkdirInternal(dir *Inode, name string) *Inode {
	child := newInode(TypeDir, 0o755)
	child.parent = dir
	dir.children[name] = child
	return child
}

// Stat returns metadata for path.
func (k *Kernel) Stat(t *Task, path string) (Stat, error) {
	defer k.begin(t).Unlock()
	charge(workStat)
	if err := k.inject("fs.stat", t); err != nil {
		return Stat{}, err
	}
	ino, err := k.resolve(t, path)
	if err != nil {
		return Stat{}, hideDenied(err)
	}
	if err := k.inodePermission(t, ino, MayRead); err != nil {
		return Stat{}, hideDenied(err)
	}
	held := k.rlockInode(ino)
	st := Stat{Ino: ino.Ino, Type: ino.Type, Mode: ino.Mode, Size: len(ino.data), Nlink: ino.nlink}
	held.Unlock()
	return st, nil
}

// Chdir changes the task's working directory.
func (k *Kernel) Chdir(t *Task, path string) error {
	defer k.begin(t).Unlock()
	ino, err := k.resolve(t, path)
	if err != nil {
		return hideDenied(err)
	}
	if !ino.isDir() {
		return ErrNotDir
	}
	t.Cwd = ino
	return nil
}

// Open opens (and with OCreate, creates) the file at path.
func (k *Kernel) Open(t *Task, path string, flags OpenFlag) (FD, error) {
	return k.openLabeled(t, path, flags, nil)
}

// CreateFileLabeled implements create_file_labeled: create a file whose
// labels are set atomically with its creation, before the creator taints
// itself (Figure 3). The security module enforces the three labeled-create
// conditions of §5.2. The returned descriptor is write-only: the unlabeled
// creator may fill the secret file but reading it back requires tainting
// and a fresh open.
func (k *Kernel) CreateFileLabeled(t *Task, path string, mode Mode, labels difc.Labels) (FD, error) {
	return k.openLabeled(t, path, OWrite|OCreate, &labels)
}

func (k *Kernel) openLabeled(t *Task, path string, flags OpenFlag, labels *difc.Labels) (FD, error) {
	defer k.begin(t).Unlock()
	charge(workStat) // open path-walk cost; creation charges more below
	if err := k.inject("fs.open", t); err != nil {
		return -1, err
	}
	dir, name, err := k.resolveParent(t, path)
	if err != nil {
		return -1, hideDenied(err)
	}
	if name == "" {
		return -1, ErrIsDir
	}
	// The final component is looked up under dir's write lock whenever a
	// create could follow, so the lookup and the link are one atomic step
	// — two racing creators cannot both see ENOENT and both link.
	created := false
	var ino *Inode
	if flags&OCreate != 0 {
		held := k.lockInode(dir)
		existing, lerr := k.lookupIn(t, dir, name)
		switch {
		case lerr == nil:
			held.Unlock()
			if labels != nil {
				return -1, ErrExist // labeled create requires a fresh file
			}
			ino = existing
		case lerr == ErrNoEnt:
			ino = newInode(TypeRegular, 0o644)
			ino.parent = dir
			if err := k.inodeInitSecurity(t, dir, ino, labels); err != nil {
				held.Unlock()
				return -1, err
			}
			// Creating an entry writes the parent directory.
			if err := k.inodePermission(t, dir, MayWrite); err != nil {
				held.Unlock()
				return -1, err
			}
			dir.children[name] = ino
			created = true
			charge(workCreate - workStat)
			// Persist the new inode's labels now that the entry is linked.
			// A crash here (EKILLED) models the machine dying mid-persist:
			// the entry stays linked with torn xattrs for the recovery pass
			// to repair or quarantine. Any other error unwinds the create.
			if perr := k.inodePostCreate(t, dir, ino); perr != nil {
				if errIsKilled(perr) {
					// The module's persist path crashed: the creating task
					// dies here, and the linked-but-torn inode awaits the
					// recovery pass. No unwind — a real crash can't unwind.
					k.killTaskHolding(t)
				} else {
					delete(dir.children, name)
				}
				held.Unlock()
				return -1, perr
			}
			held.Unlock()
		default:
			held.Unlock()
			// hideDenied must run only on this arm: mapping a read-denial to
			// ENOENT before the switch would route it into the create arm and
			// clobber an entry the caller cannot even see.
			return -1, hideDenied(lerr)
		}
	} else {
		ino, err = k.lookup(t, dir, name)
		if err != nil {
			return -1, hideDenied(err)
		}
	}
	if ino.isDir() {
		return -1, ErrIsDir
	}
	// A freshly created inode skips the open-time permission check (creat
	// semantics): the module already approved the creation, and the
	// per-operation FilePermission hook still guards every read/write, so
	// an unlabeled creator of an endorsed file can fill it through the
	// descriptor only after raising its own integrity.
	if !created {
		var mask AccessMask
		if flags&ORead != 0 {
			mask |= MayRead
		}
		if flags&(OWrite|OTrunc|OAppend) != 0 {
			mask |= MayWrite
		}
		if err := k.inodePermission(t, ino, mask); err != nil {
			return -1, hideDenied(err)
		}
	}
	f := &File{Inode: ino, Flags: flags}
	if flags&OTrunc != 0 && ino.Type == TypeRegular {
		held := k.lockInode(ino)
		ino.data = nil
		held.Unlock()
	}
	if flags&OAppend != 0 {
		held := k.rlockInode(ino)
		f.offset = len(ino.data)
		held.Unlock()
	}
	return t.installFD(f), nil
}

// Close releases the descriptor.
func (k *Kernel) Close(t *Task, fd FD) error {
	defer k.begin(t).Unlock()
	if _, err := t.file(fd); err != nil {
		return err
	}
	delete(t.fds, fd)
	return nil
}

// Read reads up to len(buf) bytes from the descriptor. Pipe reads are
// non-blocking: an empty pipe returns ErrAgain, never EOF, because an EOF
// from an exiting writer would leak information (§5.2).
func (k *Kernel) Read(t *Task, fd FD, buf []byte) (int, error) {
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if f.Inode.Type == TypePipe && !f.pipeReadEnd {
		return 0, ErrBadF
	}
	if f.Inode.Type != TypePipe && f.Flags&ORead == 0 {
		return 0, ErrBadF
	}
	switch f.Inode.Type {
	case TypeRegular:
		charge(workRegularIO)
	case TypePipe:
		charge(workPipeIO)
	default:
		charge(workDeviceIO)
	}
	// The file lock covers the offset and the lazily attached file blob;
	// a File may be shared across tasks via DupTo.
	defer k.lockFile(f).Unlock()
	if err := k.filePermission(t, f, MayRead); err != nil {
		return 0, err
	}
	// Faults fire only after the policy hook approved the read, so a fault
	// can never disclose the outcome of a denied check. A faulted pipe read
	// reports EAGAIN — indistinguishable from an empty pipe, preserving the
	// §5.2 non-blocking-read property under failure.
	if err := k.inject("fs.read", t); err != nil {
		if f.Inode.Type == TypePipe && !errIsKilled(err) {
			return 0, ErrAgain
		}
		return 0, err
	}
	switch f.Inode.Type {
	case TypeRegular:
		ino := f.Inode
		held := k.rlockInode(ino)
		var n int
		eof := f.offset >= len(ino.data)
		if !eof {
			n = copy(buf, ino.data[f.offset:])
			f.offset += n
		}
		held.Unlock()
		if eof {
			return 0, nil // EOF
		}
		k.ioWait()
		return n, nil
	case TypePipe:
		held := k.lockInode(f.Inode)
		n := f.Inode.pipe.read(buf)
		held.Unlock()
		if n == 0 {
			return 0, ErrAgain
		}
		return n, nil
	case TypeDevZero:
		for i := range buf {
			buf[i] = 0
		}
		return len(buf), nil
	case TypeDevNull:
		return 0, nil
	default:
		return 0, ErrInval
	}
}

// Write writes data to the descriptor. Pipe writes that fail the label
// check or overflow the buffer are silently dropped: the caller sees
// success either way (§5.2).
func (k *Kernel) Write(t *Task, fd FD, data []byte) (int, error) {
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if f.Inode.Type == TypePipe && f.pipeReadEnd {
		return 0, ErrBadF
	}
	if f.Inode.Type != TypePipe && f.Flags&OWrite == 0 {
		return 0, ErrBadF
	}
	switch f.Inode.Type {
	case TypeRegular:
		charge(workRegularIO)
	case TypePipe:
		charge(workPipeIO)
	default:
		charge(workDeviceIO)
	}
	defer k.lockFile(f).Unlock()
	if f.Inode.Type == TypePipe {
		// The label check result must not be observable: consult the hook
		// but report success regardless, dropping the message on a
		// failure, exactly like a full buffer. An injected write-side
		// fault takes the same silent-drop path — the caller cannot tell
		// a policy drop, a fault drop and a delivery apart.
		delivered := k.filePermission(t, f, MayWrite) == nil
		if err := k.inject("fs.write", t); err != nil {
			if errIsKilled(err) {
				return 0, err
			}
			delivered = false
		}
		if delivered {
			held := k.lockInode(f.Inode)
			f.Inode.pipe.write(data)
			held.Unlock()
		}
		return len(data), nil
	}
	if err := k.filePermission(t, f, MayWrite); err != nil {
		return 0, err
	}
	switch f.Inode.Type {
	case TypeRegular:
		ino := f.Inode
		// A fault on an approved file write tears it: the first half of the
		// data lands, the rest is lost, and the syscall reports the fault.
		// The offset does not advance — exactly a half-flushed page cache.
		if err := k.inject("fs.write", t); err != nil {
			torn := data[:len(data)/2]
			held := k.lockInode(ino)
			end := f.offset + len(torn)
			if end > len(ino.data) {
				grown := make([]byte, end)
				copy(grown, ino.data)
				ino.data = grown
			}
			copy(ino.data[f.offset:], torn)
			held.Unlock()
			return 0, err
		}
		held := k.lockInode(ino)
		end := f.offset + len(data)
		if end > len(ino.data) {
			grown := make([]byte, end)
			copy(grown, ino.data)
			ino.data = grown
		}
		copy(ino.data[f.offset:], data)
		f.offset = end
		held.Unlock()
		k.ioWait()
		return len(data), nil
	case TypeDevNull, TypeDevZero:
		return len(data), nil
	default:
		return 0, ErrInval
	}
}

// WriteVec writes the chunks to the descriptor as one batched syscall:
// one entry-lock acquisition, one descriptor lookup, one security check
// and one dispatch charge cover the whole vector, amortizing the fixed
// per-syscall overhead that dominates small writes.
//
// Checking the batch with a single verdict is equivalent to per-element
// checks: the caller's labels and capabilities cannot change while its
// syscall-entry lock is held (every label mutation path serializes on
// the same lock, cross-task ones via begin2), and inode security blobs
// are immutable in place — so all elements of the vector would receive
// the same answer the first element does.
//
// Pipe semantics match Write: an illegal flow or an injected fault
// silently drops the entire vector and the caller sees success. On
// regular files an injected fault tears the batch at an element
// boundary — the first half of the chunks land, the rest are lost, the
// offset does not advance, and the syscall reports the fault.
func (k *Kernel) WriteVec(t *Task, fd FD, chunks [][]byte) (int, error) {
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if f.Inode.Type == TypePipe && f.pipeReadEnd {
		return 0, ErrBadF
	}
	if f.Inode.Type != TypePipe && f.Flags&OWrite == 0 {
		return 0, ErrBadF
	}
	charge(workWriteDispatch)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	defer k.lockFile(f).Unlock()
	if f.Inode.Type == TypePipe {
		charge(len(chunks) * workPipeData)
		delivered := k.filePermission(t, f, MayWrite) == nil
		if err := k.inject("fs.writev", t); err != nil {
			if errIsKilled(err) {
				return 0, err
			}
			delivered = false
		}
		if delivered {
			held := k.lockInode(f.Inode)
			for _, c := range chunks {
				f.Inode.pipe.write(c)
			}
			held.Unlock()
		}
		return total, nil
	}
	if err := k.filePermission(t, f, MayWrite); err != nil {
		return 0, err
	}
	switch f.Inode.Type {
	case TypeRegular:
		charge(len(chunks) * workWriteData)
		ino := f.Inode
		if err := k.inject("fs.writev", t); err != nil {
			torn := chunks[:len(chunks)/2]
			held := k.lockInode(ino)
			off := f.offset
			for _, c := range torn {
				end := off + len(c)
				if end > len(ino.data) {
					grown := make([]byte, end)
					copy(grown, ino.data)
					ino.data = grown
				}
				copy(ino.data[off:], c)
				off = end
			}
			held.Unlock()
			return 0, err
		}
		held := k.lockInode(ino)
		end := f.offset + total
		if end > len(ino.data) {
			grown := make([]byte, end)
			copy(grown, ino.data)
			ino.data = grown
		}
		off := f.offset
		for _, c := range chunks {
			copy(ino.data[off:], c)
			off += len(c)
		}
		f.offset = end
		held.Unlock()
		k.ioWait()
		return total, nil
	case TypeDevNull, TypeDevZero:
		return total, nil
	default:
		return 0, ErrInval
	}
}

// Seek resets a regular file's offset.
func (k *Kernel) Seek(t *Task, fd FD, offset int) error {
	defer k.begin(t).Unlock()
	f, err := t.file(fd)
	if err != nil {
		return err
	}
	if f.Inode.Type != TypeRegular || offset < 0 {
		return ErrInval
	}
	defer k.lockFile(f).Unlock()
	f.offset = offset
	return nil
}

// Unlink removes the entry at path. Removing a name writes the parent
// directory, and removing the inode requires write access to it.
func (k *Kernel) Unlink(t *Task, path string) error {
	defer k.begin(t).Unlock()
	charge(workUnlink)
	if err := k.inject("fs.unlink", t); err != nil {
		return err
	}
	dir, name, err := k.resolveParent(t, path)
	if err != nil {
		return hideDenied(err)
	}
	if name == "" {
		return ErrIsDir
	}
	// Hold dir's write lock across lookup → checks → delete so the entry
	// cannot be swapped or re-created between the check and the removal.
	defer k.lockInode(dir).Unlock()
	ino, err := k.lookupIn(t, dir, name)
	if err != nil {
		return hideDenied(err)
	}
	if ino.isDir() {
		return ErrIsDir
	}
	// Unlink's success/failure observably reveals the entry, so the
	// module checks visibility (MayUnlink): a caller that cannot read the
	// inode — and could not after any legal label change — must see the
	// same ENOENT as for a nonexistent path. Checked first so read-denial
	// wins over any EACCES from the write checks.
	if err := k.inodePermission(t, ino, MayUnlink); err != nil {
		return hideDenied(err)
	}
	if err := k.inodePermission(t, dir, MayWrite); err != nil {
		return err
	}
	if err := k.inodePermission(t, ino, MayWrite); err != nil {
		return err
	}
	delete(dir.children, name)
	heldC := k.lockInode(ino) // parent→child order, dir still held
	ino.nlink--
	heldC.Unlock()
	return nil
}

// Mkdir creates an unlabeled directory.
func (k *Kernel) Mkdir(t *Task, path string, mode Mode) error {
	return k.mkdirLabeled(t, path, mode, nil)
}

// MkdirLabeled implements mkdir_labeled (Figure 3).
func (k *Kernel) MkdirLabeled(t *Task, path string, mode Mode, labels difc.Labels) error {
	return k.mkdirLabeled(t, path, mode, &labels)
}

func (k *Kernel) mkdirLabeled(t *Task, path string, mode Mode, labels *difc.Labels) error {
	defer k.begin(t).Unlock()
	charge(workMkdir)
	if err := k.inject("fs.mkdir", t); err != nil {
		return err
	}
	dir, name, err := k.resolveParent(t, path)
	if err != nil {
		return hideDenied(err)
	}
	if name == "" {
		return ErrExist
	}
	defer k.lockInode(dir).Unlock()
	if _, err := k.lookupIn(t, dir, name); err == nil {
		return ErrExist
	} else if err != ErrNoEnt {
		return hideDenied(err)
	}
	child := newInode(TypeDir, mode)
	child.parent = dir
	if err := k.inodeInitSecurity(t, dir, child, labels); err != nil {
		return err
	}
	if err := k.inodePermission(t, dir, MayWrite); err != nil {
		return err
	}
	dir.children[name] = child
	if perr := k.inodePostCreate(t, dir, child); perr != nil {
		if errIsKilled(perr) {
			k.killTaskHolding(t)
		} else {
			delete(dir.children, name)
		}
		return perr
	}
	return nil
}

// ReadDir lists the entries of the directory at path.
func (k *Kernel) ReadDir(t *Task, path string) ([]string, error) {
	defer k.begin(t).Unlock()
	charge(workReadDir)
	if err := k.inject("fs.readdir", t); err != nil {
		return nil, err
	}
	ino, err := k.resolve(t, path)
	if err != nil {
		return nil, hideDenied(err)
	}
	if !ino.isDir() {
		return nil, ErrNotDir
	}
	if err := k.inodePermission(t, ino, MayRead); err != nil {
		return nil, hideDenied(err)
	}
	held := k.rlockInode(ino)
	names := ino.childNames()
	held.Unlock()
	return names, nil
}

// Pipe creates a pipe and returns (read end, write end). The pipe's inode
// label is initialized from the creating task by the security module.
func (k *Kernel) Pipe(t *Task) (FD, FD, error) {
	defer k.begin(t).Unlock()
	if err := k.inject("fs.pipe", t); err != nil {
		return -1, -1, err
	}
	ino := newInode(TypePipe, 0o600)
	if err := k.inodeInitSecurity(t, nil, ino, nil); err != nil {
		return -1, -1, err
	}
	r := &File{Inode: ino, Flags: ORead, pipeReadEnd: true}
	w := &File{Inode: ino, Flags: OWrite}
	return t.installFD(r), t.installFD(w), nil
}

// DupTo duplicates an open descriptor of src into dst's descriptor table,
// modeling fd passing between the threads of one process. Both tasks must
// belong to the same simulated process for this to be meaningful; the
// security hooks still check every subsequent operation.
func (k *Kernel) DupTo(src *Task, fd FD, dst *Task) (FD, error) {
	defer k.begin2(src, dst).Unlock()
	f, err := src.file(fd)
	if err != nil {
		return -1, err
	}
	return dst.installFD(f), nil
}

// --- xattr syscalls (labels are persisted here by the module) ---

// GetXattr reads an extended attribute from the inode at path.
func (k *Kernel) GetXattr(t *Task, path, name string) ([]byte, error) {
	defer k.begin(t).Unlock()
	charge(workXattr)
	if err := k.inject("fs.xattr", t); err != nil {
		return nil, err
	}
	ino, err := k.resolve(t, path)
	if err != nil {
		return nil, hideDenied(err)
	}
	if err := k.inodePermission(t, ino, MayRead); err != nil {
		return nil, hideDenied(err)
	}
	held := k.rlockInode(ino)
	v, ok := ino.GetXattr(name)
	held.Unlock()
	if !ok {
		return nil, ErrNoAttr
	}
	return v, nil
}

// --- mmap / prot fault (Table 2 microbenchmarks) ---

// Mmap maps length bytes. file == -1 requests an anonymous mapping;
// otherwise the mapping is backed by the open file, and the security
// module checks the flow implied by prot.
func (k *Kernel) Mmap(t *Task, length int, prot int, file FD) (uint64, error) {
	defer k.begin(t).Unlock()
	charge(workMmap)
	if length <= 0 {
		return 0, ErrInval
	}
	var backing *Inode
	if file >= 0 {
		f, err := t.file(file)
		if err != nil {
			return 0, err
		}
		backing = f.Inode
		if err := k.mmapFile(t, backing, prot); err != nil {
			return 0, err
		}
	}
	npages := (length + PageSize - 1) / PageSize
	addr := 0x7f00_0000_0000 + t.nextMap
	t.nextMap += uint64(npages) * PageSize
	t.vmas = append(t.vmas, vma{
		addr:    addr,
		length:  npages * PageSize,
		prot:    prot,
		present: make([]bool, npages),
		file:    backing,
	})
	return addr, nil
}

// Munmap removes the mapping starting at addr.
func (k *Kernel) Munmap(t *Task, addr uint64) error {
	defer k.begin(t).Unlock()
	charge(workMmap / 6)
	for i := range t.vmas {
		if t.vmas[i].addr == addr {
			t.vmas = append(t.vmas[:i], t.vmas[i+1:]...)
			return nil
		}
	}
	return ErrInval
}

// Mprotect changes the protection of the mapping at addr and marks all its
// pages not-present, so the next access takes a protection fault — the
// lat_protfault pattern from lmbench.
func (k *Kernel) Mprotect(t *Task, addr uint64, prot int) error {
	defer k.begin(t).Unlock()
	for i := range t.vmas {
		if t.vmas[i].addr == addr {
			t.vmas[i].prot = prot
			for j := range t.vmas[i].present {
				t.vmas[i].present[j] = false
			}
			return nil
		}
	}
	return ErrInval
}

// PageFault simulates the fault path for an access at addr with the given
// intent. It validates the vma, applies the module's mmap check for
// file-backed pages, and maps the page in.
func (k *Kernel) PageFault(t *Task, addr uint64, write bool) error {
	defer k.begin(t).Unlock()
	charge(workProtFault)
	for i := range t.vmas {
		v := &t.vmas[i]
		if addr >= v.addr && addr < v.addr+uint64(v.length) {
			want := ProtRead
			if write {
				want = ProtWrite
			}
			if v.prot&want == 0 {
				return ErrFault
			}
			if v.file != nil {
				if err := k.mmapFile(t, v.file, want); err != nil {
					return err
				}
			}
			v.present[(addr-v.addr)/PageSize] = true
			return nil
		}
	}
	return ErrFault
}
