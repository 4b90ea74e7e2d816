package kernel

import "sync"

// Sockets. The Laminar OS "governs information flows through all standard
// OS interfaces, including through devices, files, pipes and sockets"
// (§4.1). The simulated kernel models two socket shapes:
//
//   - Socketpair: a connected bidirectional pair (AF_UNIX style), used by
//     the case studies for peer communication. Like pipes, sends that the
//     security module rejects are silently dropped and reads are
//     non-blocking, so delivery status cannot leak information.
//
//   - Listener/Connect: a named rendezvous in an in-kernel namespace so
//     unrelated processes can connect (the "unsecured network channel" of
//     the paper's examples is a socket to an unlabeled peer).
//
// A socket is a pair of pipe-like inodes, one per direction; each File
// wraps the appropriate (read, write) ends, and the existing pipe label
// semantics apply per direction.

// socketFile tracks the two directions of one socket endpoint.
type socketFile struct {
	readBuf  *pipeBuf
	writeBuf *pipeBuf
}

// workSocket mirrors pipe costs; connection setup costs more.
const (
	workSocketIO    = workPipeIO
	workSocketSetup = 2000
)

// Socketpair creates a connected pair of sockets for task t, returning
// two descriptors. The socket inode takes the creating task's labels via
// InodeInitSecurity, like a pipe.
func (k *Kernel) Socketpair(t *Task) (FD, FD, error) {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	a, b, err := k.newSocketPair(t)
	if err != nil {
		return -1, -1, err
	}
	return t.installFD(a), t.installFD(b), nil
}

func (k *Kernel) newSocketPair(t *Task) (*File, *File, error) {
	ino := newInode(TypePipe, 0o600) // label carrier for the connection
	if err := k.inodeInitSecurity(t, nil, ino, nil); err != nil {
		return nil, nil, err
	}
	ab := newPipeBuf()
	ba := newPipeBuf()
	a := &File{Inode: ino, Flags: ORead | OWrite, sock: &socketFile{readBuf: ba, writeBuf: ab}}
	b := &File{Inode: ino, Flags: ORead | OWrite, sock: &socketFile{readBuf: ab, writeBuf: ba}}
	return a, b, nil
}

// Send writes data to a socket endpoint. Illegal flows and full buffers
// drop silently, exactly like pipe writes (§5.2).
func (k *Kernel) Send(t *Task, fd FD, data []byte) (int, error) {
	defer k.begin(t).Unlock()
	charge(workSocketIO)
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if f.sock == nil {
		return 0, ErrInval
	}
	defer k.lockFile(f).Unlock()
	delivered := k.filePermission(t, f, MayWrite) == nil
	// Injected send faults ride the same silent-drop path as policy drops
	// and full buffers: success is reported either way (§5.2).
	if err := k.inject("socket.send", t); err != nil {
		if errIsKilled(err) {
			return 0, err
		}
		delivered = false
	}
	if delivered {
		// The connection inode's lock covers both direction buffers.
		held := k.lockInode(f.Inode)
		f.sock.writeBuf.write(data)
		held.Unlock()
	}
	return len(data), nil
}

// Recv reads from a socket endpoint; empty buffers return EAGAIN.
func (k *Kernel) Recv(t *Task, fd FD, buf []byte) (int, error) {
	defer k.begin(t).Unlock()
	charge(workSocketIO)
	f, err := t.file(fd)
	if err != nil {
		return 0, err
	}
	if f.sock == nil {
		return 0, ErrInval
	}
	defer k.lockFile(f).Unlock()
	if err := k.filePermission(t, f, MayRead); err != nil {
		return 0, err
	}
	// A faulted receive looks like an empty buffer, never a distinct error.
	if err := k.inject("socket.recv", t); err != nil {
		if errIsKilled(err) {
			return 0, err
		}
		return 0, ErrAgain
	}
	held := k.lockInode(f.Inode)
	n := f.sock.readBuf.read(buf)
	held.Unlock()
	if n == 0 {
		return 0, ErrAgain
	}
	return n, nil
}

// Listen registers a named listener owned by t. The name lives in a flat
// in-kernel namespace; creating a listener is writing that namespace, so
// a tainted task cannot advertise a name (the name would leak), mirroring
// the labeled-file-creation rule.
func (k *Kernel) Listen(t *Task, name string) error {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	if err := k.inject("socket.listen", t); err != nil {
		return err
	}
	// lmu is held across dup-check → hook → insert so the whole
	// advertise step is atomic and ErrExist keeps priority over a policy
	// denial, exactly as under the big lock. The hook only reads label
	// blobs, so no lock-order edge is created.
	k.lmu.Lock()
	defer k.lmu.Unlock()
	if k.listeners == nil {
		k.listeners = make(map[string]*listener)
	}
	if _, dup := k.listeners[name]; dup {
		return ErrExist
	}
	// The namespace is an unlabeled shared resource: advertising a name
	// is a write to it, so a tainted task cannot leak through listener
	// names.
	if err := k.inodePermission(t, k.socketNS, MayWrite); err != nil {
		return err
	}
	k.listeners[name] = &listener{owner: t}
	return nil
}

// listener is a pending-connection queue. Listeners are never removed
// from the namespace, so a pointer obtained under lmu stays valid; mu
// guards the pending queue.
type listener struct {
	owner   *Task
	mu      sync.Mutex
	pending []*File // accept-side endpoints awaiting Accept
}

// Connect creates a connection to the named listener and returns the
// client endpoint. The connection inode takes the connecting task's
// labels; whether the listener can use it is decided by the per-operation
// checks on its side.
func (k *Kernel) Connect(t *Task, name string) (FD, error) {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	if err := k.inject("socket.connect", t); err != nil {
		return -1, err
	}
	k.lmu.Lock()
	l, ok := k.listeners[name]
	k.lmu.Unlock()
	if !ok {
		return -1, ErrNoEnt
	}
	client, server, err := k.newSocketPair(t)
	if err != nil {
		return -1, err
	}
	l.mu.Lock()
	l.pending = append(l.pending, server)
	l.mu.Unlock()
	return t.installFD(client), nil
}

// Accept dequeues a pending connection on the named listener; EAGAIN when
// none is waiting. Only the listener's owner may accept.
func (k *Kernel) Accept(t *Task, name string) (FD, error) {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	if err := k.inject("socket.accept", t); err != nil {
		return -1, err
	}
	k.lmu.Lock()
	l, ok := k.listeners[name]
	k.lmu.Unlock()
	if !ok {
		return -1, ErrNoEnt
	}
	if l.owner != t {
		return -1, ErrPerm
	}
	l.mu.Lock()
	var server *File
	if len(l.pending) > 0 {
		server = l.pending[0]
		l.pending = l.pending[1:]
	}
	l.mu.Unlock()
	if server == nil {
		return -1, ErrAgain
	}
	return t.installFD(server), nil
}
