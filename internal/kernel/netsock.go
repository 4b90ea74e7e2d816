package kernel

import "laminar/internal/difc"

// Network socket endpoints. The cross-kernel labeled transport
// (internal/netlabel) moves bytes between Kernel instances over real TCP;
// on each kernel the application-visible object is an ordinary socket
// endpoint whose *peer* is the trusted transport rather than a local
// task. The transport plays the role of a NIC driver: it is inside the
// TCB, so its data movement (NetFeed/NetDrain) runs no security hooks —
// all policy fires at the application's Send/Recv, where the LSM checks
// the flow against the channel inode's labels exactly as for a local
// socketpair (§4.1: sockets are governed like pipes and files).
//
// Two creation paths exist, mirroring the two ends of a channel:
//
//   - NetSocket: the opening side. A local principal creates a labeled
//     endpoint, so the full labeled-create rule of §5.2 applies via
//     InodeInitSecurity with explicit labels (secrecy flow + capability
//     acquisition checks against the creator).
//   - NetSocketAdopted: the accepting side. No local principal creates
//     this inode — its labels arrive from the wire handshake — so the
//     trusted transport attaches the security blob itself (the module's
//     AdoptInodeLabels) before the endpoint is published. Whether any
//     local task may then read or write it is decided per operation by
//     the ordinary hooks.

// NetSocket creates one labeled socket endpoint for t and installs it.
// The explicit labels are checked by the module's labeled-create rule;
// the returned *File is the trusted transport's handle for NetFeed and
// NetDrain (the application only ever sees the FD).
func (k *Kernel) NetSocket(t *Task, labels difc.Labels) (FD, *File, error) {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	if err := k.inject("socket.net", t); err != nil {
		return -1, nil, err
	}
	ino := newInode(TypePipe, 0o600)
	if err := k.inodeInitSecurity(t, nil, ino, &labels); err != nil {
		return -1, nil, err
	}
	f := newNetEndpoint(ino)
	return t.installFD(f), f, nil
}

// SocketpairLabeled is Socketpair with explicit connection labels: both
// descriptors land in t, and the inode takes the given labels under the
// same labeled-create checks as NetSocket. The differential oracle uses
// it to replay a remote two-kernel flow through one in-process kernel.
func (k *Kernel) SocketpairLabeled(t *Task, labels difc.Labels) (FD, FD, error) {
	defer k.begin(t).Unlock()
	charge(workSocketSetup)
	ino := newInode(TypePipe, 0o600)
	if err := k.inodeInitSecurity(t, nil, ino, &labels); err != nil {
		return -1, -1, err
	}
	ab := newPipeBuf()
	ba := newPipeBuf()
	a := &File{Inode: ino, Flags: ORead | OWrite, sock: &socketFile{readBuf: ba, writeBuf: ab}}
	b := &File{Inode: ino, Flags: ORead | OWrite, sock: &socketFile{readBuf: ab, writeBuf: ba}}
	return t.installFD(a), t.installFD(b), nil
}

// NetSocketAdopted creates an endpoint whose inode security blob is
// attached by trusted transport code: attach runs on the fresh inode
// before the endpoint can be seen by anything else, preserving the
// blobs-before-publication invariant of the sharded locking discipline
// (locking.go). No FD is installed — the channel may receive data before
// any local task accepts it; InstallFile publishes the descriptor later.
func (k *Kernel) NetSocketAdopted(attach func(*Inode)) *File {
	ino := newInode(TypePipe, 0o600)
	if attach != nil {
		attach(ino)
	}
	return newNetEndpoint(ino)
}

// InstallFile publishes f in t's descriptor table. Trusted-transport
// path: the netlabel Accept hands an adopted endpoint to the accepting
// task. Subsequent operations on the FD are fully checked.
func (k *Kernel) InstallFile(t *Task, f *File) FD {
	defer k.begin(t).Unlock()
	return t.installFD(f)
}

// newNetEndpoint builds a bidirectional endpoint whose peer is the
// transport: the transport feeds readBuf and drains writeBuf.
func newNetEndpoint(ino *Inode) *File {
	return &File{
		Inode: ino,
		Flags: ORead | OWrite,
		sock:  &socketFile{readBuf: newPipeBuf(), writeBuf: newPipeBuf()},
	}
}

// NetFeed appends received bytes to the endpoint's inbound buffer,
// reporting delivery (false = buffer full, the unreliable-channel drop).
// TCB data movement: no hooks, no task lock — only the inode lock that
// guards the pipe buffers, so it is safe against concurrent Send/Recv in
// both locking modes.
func (k *Kernel) NetFeed(f *File, data []byte) bool {
	if f == nil || f.sock == nil {
		return false
	}
	held := k.lockInode(f.Inode)
	ok := f.sock.readBuf.write(data)
	held.Unlock()
	return ok
}

// NetDrain moves up to max bytes (0 = everything) out of the endpoint's
// outbound buffer for the transport to ship. Bytes present here already
// passed the sender's FilePermission(write) check in Send; a drained
// message the link then loses is exactly the paper's unreliable channel.
func (k *Kernel) NetDrain(f *File, max int) []byte {
	if f == nil || f.sock == nil {
		return nil
	}
	defer k.lockInode(f.Inode).Unlock()
	n := f.sock.writeBuf.len()
	if n == 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	buf := make([]byte, n)
	return buf[:f.sock.writeBuf.read(buf)]
}
