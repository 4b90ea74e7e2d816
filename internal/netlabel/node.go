package netlabel

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// Local aliases keep the fault-kind switches readable.
const (
	faultNone  = faultinject.None
	faultError = faultinject.Error
	faultCrash = faultinject.Crash
)

// ErrLinkDown reports that every dial attempt to a peer failed (bounded
// retries with doubling backoff exhausted).
var ErrLinkDown = errors.New("netlabel: link down")

// Config wires a Node to its kernel.
type Config struct {
	// Kernel is the local kernel whose tasks use the channels.
	Kernel *kernel.Kernel
	// Module adopts wire labels onto accepted channel inodes. With a nil
	// module (bare kernel) accepted endpoints are unlabeled.
	Module *lsm.Module
	// Injector is the optional deterministic fault injector; it is
	// consulted at the "net.*" sites (dial, accept, handshake, flush,
	// frame receive) so the chaos harness can kill links mid-handshake.
	Injector faultinject.Injector
	// Recorder overrides the kernel's telemetry recorder for the
	// transport's own provenance (LayerNet).
	Recorder *telemetry.Recorder
	// NodeID identifies this node in handshakes (diagnostic only).
	NodeID uint64
	// Tracing mints a telemetry.TraceCtx for every channel this node
	// opens and carries it in a versioned trailing extension on the
	// Open/OpenRouted frame, so every hop's verdict events share one
	// trace id. Purely observational: the context is derived only from
	// transport metadata the peer already sees (node id, epoch, an open
	// counter) and enforcement never reads it — the traced-vs-untraced
	// differential oracle holds the verdict streams byte-identical.
	Tracing bool

	// Batching coalesces each flush into a single TCP write.
	Batching bool
	// MaxQueue bounds outbound bytes per connection; a full queue stops
	// channel draining (backpressure) rather than growing without bound.
	MaxQueue int
	// DrainChunk is the largest Data-frame payload.
	DrainChunk int
	// DialRetries bounds dial attempts beyond the first.
	DialRetries int
	// HandshakeTimeout bounds each synchronous handshake read: a peer
	// that connects and then stonewalls (half-open) is cut off after this
	// long, fail-closed. Zero takes the 2s default; tests shrink it.
	HandshakeTimeout time.Duration
	// MaxConns caps accepted connections (shed at the door).
	MaxConns int

	// Control receives the payload of every Ctrl frame, in Pump order.
	// The transport never interprets control payloads; with a nil handler
	// they are dropped fail-closed. The cluster label plane
	// (internal/cluster) carries membership, join negotiation and epoch
	// announcements here.
	Control func(peerID uint64, payload []byte)
	// Routed decides the fate of an OpenRouted frame. The endpoint file
	// has already been created and label-adopted (per-hop adoption: every
	// node on a route attaches the wire labels to its own inode before
	// any verdict). A nil handler drops routed opens fail-closed.
	Routed func(o RoutedOffer) RoutedAction
}

// RoutedOffer is one received routed-channel open, handed to the Routed
// handler with the adopted local endpoint.
type RoutedOffer struct {
	PeerID  uint64
	Channel uint32
	Labels  difc.Labels
	Meta    []byte
	File    *kernel.File
	// Trace is the context the open carried (Traced false when the
	// origin sent none); a relay hands it onward so the whole route
	// shares one trace id.
	Trace  telemetry.TraceCtx
	Traced bool
}

// RoutedAction is the Routed handler's verdict on an offer.
type RoutedAction int

const (
	// RoutedDrop discards the open fail-closed: the endpoint is forgotten
	// and the opener cannot tell a refused route from a lossy link.
	RoutedDrop RoutedAction = iota
	// RoutedDeliver queues the channel as an ordinary local offer for
	// Accept — this node is the route's final destination.
	RoutedDeliver
	// RoutedClaim registers the channel for Data delivery but keeps it
	// out of the Accept queue: the handler owns the File and forwards its
	// bytes onward (the relay hop).
	RoutedClaim
)

// channel is one labeled cross-kernel channel: a local endpoint File
// plus the (conn, id) pair that addresses its remote half.
type channel struct {
	conn     *conn
	id       uint32
	file     *kernel.File
	labels   difc.Labels
	accepted bool // created by a remote Open
}

// Node is one kernel's attachment to the labeled network: a listener,
// a pool of per-peer connections, and the channel table. All policy
// lives in the kernels at the ends; the Node is trusted transport.
type Node struct {
	cfg Config
	rec *telemetry.Recorder
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	dialed map[string]*conn // connection pool, keyed by peer address
	conns  []*conn
	chans  []*channel
	offers []*channel // accepted channels awaiting Accept
	closed bool

	// pumpMu serializes Pump so frame application order is well defined
	// even when tests and a Run loop overlap.
	pumpMu sync.Mutex

	// traceSeq numbers the channels this node opens; with the node id it
	// forms the trace id, so tracing never reads labels or payloads.
	traceSeq atomic.Uint64
}

// NewNode builds a node around the kernel; Listen/Open activate it.
func NewNode(cfg Config) *Node {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = defaultMaxQueue
	}
	if cfg.DrainChunk <= 0 {
		cfg.DrainChunk = defaultDrainChunk
	}
	if cfg.DialRetries <= 0 {
		cfg.DialRetries = defaultDialRetries
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = defaultMaxConns
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = handshakeTimeout
	}
	rec := cfg.Recorder
	if rec == nil && cfg.Kernel != nil {
		rec = cfg.Kernel.Telemetry()
	}
	if rec != nil && cfg.NodeID != 0 {
		// Stamp the recorder with this node's identity so every event it
		// records is mergeable across nodes. The cluster layer overwrites
		// this with the persisted incarnation epoch once it is loaded.
		rec.SetNodeIdentity(cfg.NodeID, 0)
	}
	return &Node{cfg: cfg, rec: rec, dialed: make(map[string]*conn)}
}

// mintTrace builds a fresh trace context. Covert-channel invariant:
// every field is derivable from data the receiver may already see — the
// node id travels in each handshake, the incarnation epoch on the
// control plane, and the counter is as observable as the channel ids the
// transport assigns. Labels and payloads never influence it.
func (n *Node) mintTrace() telemetry.TraceCtx {
	var epoch uint64
	if n.rec != nil {
		_, epoch = n.rec.NodeIdentity()
	}
	return telemetry.TraceCtx{
		TraceID:     n.cfg.NodeID<<32 | (n.traceSeq.Add(1) & 0xffffffff),
		Origin:      n.cfg.NodeID,
		OriginEpoch: epoch,
	}
}

// bindTrace attaches a context to a local endpoint's inode in the
// recorder's registry — telemetry-only state, never read by enforcement.
func (n *Node) bindTrace(file *kernel.File, ctx telemetry.TraceCtx) {
	if n.rec != nil && file != nil {
		n.rec.BindTrace(uint64(file.Inode.Ino), ctx)
	}
}

// Listen starts accepting peer connections on addr (":0" for tests).
func (n *Node) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return nil
}

// Addr reports the listener address, for peers to dial.
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// An injected fault at the door is a link killed before the
		// handshake; the dialer sees a reset and retries.
		if n.injectAt("net.accept") != faultNone {
			nc.Close()
			continue
		}
		n.mu.Lock()
		if len(n.conns) >= n.cfg.MaxConns {
			n.reapLocked()
		}
		closed, total := n.closed, len(n.conns)
		n.mu.Unlock()
		if closed {
			nc.Close()
			return
		}
		if total >= n.cfg.MaxConns {
			n.count("net.accept.shed", 1)
			nc.Close()
			continue
		}
		n.wg.Add(1)
		go n.handshakeServer(nc)
	}
}

// handshakeServer runs the accepting half of the version handshake.
// Anything unexpected — wrong frame, wrong version, a faulted link —
// closes the connection fail-closed with LayerNet provenance.
func (n *Node) handshakeServer(nc net.Conn) {
	defer n.wg.Done()
	if n.injectAt("net.handshake") != faultNone {
		n.deny("netd.handshake", "hello", errors.New("link fault mid-handshake"))
		nc.Close()
		return
	}
	f, err := readFrameSync(nc, n.cfg.HandshakeTimeout)
	if err != nil {
		n.deny("netd.handshake", "hello", err)
		nc.Close()
		return
	}
	if f.Type != FrameHello {
		n.deny("netd.handshake", "hello", fmt.Errorf("first frame is %s, want hello", f.Type))
		nc.Close()
		return
	}
	ver, peerID, perr := ParseHello(f.Payload)
	if perr != nil || f.Version != Version || ver != Version {
		// Full provenance for the rejection: who dialed (address and, when
		// the payload parsed, the claimed node id) and both version pairs.
		// laminar-trace explain-denial reconstructs the rejection from
		// this record alone.
		if perr == nil {
			perr = fmt.Errorf("peer %s (node %d) speaks protocol version %d/%d, want %d",
				nc.RemoteAddr(), peerID, f.Version, ver, Version)
		} else {
			perr = fmt.Errorf("peer %s: %w", nc.RemoteAddr(), perr)
		}
		n.deny("netd.handshake", "version", perr)
		nc.Close()
		return
	}
	if err := writeFrameSync(nc, Frame{Version: Version, Type: FrameHelloAck,
		Payload: AppendHello(nil, Version, n.cfg.NodeID)}); err != nil {
		nc.Close()
		return
	}
	c := newConn(n, nc, "", false, peerID)
	if !n.register(c) {
		return
	}
	n.wg.Add(1)
	go c.readLoop()
}

// handshakeClient runs the dialing half.
func (n *Node) handshakeClient(nc net.Conn, addr string) (*conn, error) {
	if n.injectAt("net.handshake") != faultNone {
		nc.Close()
		return nil, errors.New("netlabel: link fault mid-handshake")
	}
	if err := writeFrameSync(nc, Frame{Version: Version, Type: FrameHello,
		Payload: AppendHello(nil, Version, n.cfg.NodeID)}); err != nil {
		nc.Close()
		return nil, err
	}
	f, err := readFrameSync(nc, n.cfg.HandshakeTimeout)
	if err != nil {
		nc.Close()
		return nil, err
	}
	ver, peerID, perr := ParseHello(f.Payload)
	if f.Type != FrameHelloAck || perr != nil || f.Version != Version || ver != Version {
		n.deny("netd.handshake", "version", fmt.Errorf("bad hello-ack (type %s)", f.Type))
		nc.Close()
		return nil, fmt.Errorf("%w: handshake rejected", ErrLinkDown)
	}
	c := newConn(n, nc, addr, true, peerID)
	if !n.register(c) {
		return nil, errors.New("netlabel: node closed")
	}
	n.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// register publishes a handshaken connection; false when the node is
// already closed (the conn is killed).
func (n *Node) register(c *conn) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.kill()
		return false
	}
	n.conns = append(n.conns, c)
	if c.addr != "" {
		n.dialed[c.addr] = c
	}
	n.mu.Unlock()
	return true
}

// reapLocked forgets connections that died with nothing left for Pump
// to apply, so dead links stop counting against MaxConns. Without it a
// run of link faults fills the table and the node sheds every reconnect
// for good: a permanent partition, where the unreliable channel only
// permits loss. n.mu held.
func (n *Node) reapLocked() {
	live := n.conns[:0]
	for _, c := range n.conns {
		if !c.finished() {
			live = append(live, c)
		}
	}
	clear(n.conns[len(live):])
	n.conns = live
}

// dial returns the pooled connection to addr, establishing one with
// bounded retries and deterministic doubling backoff when none is live.
func (n *Node) dial(addr string) (*conn, error) {
	n.mu.Lock()
	if c, ok := n.dialed[addr]; ok && !c.isDead() {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()
	lastErr := error(ErrLinkDown)
	for attempt := 0; attempt <= n.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(dialBackoff(attempt))
		}
		if k := n.injectAt("net.dial"); k != faultNone {
			lastErr = fmt.Errorf("%w: injected %s at net.dial", ErrLinkDown, k)
			continue
		}
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		c, err := n.handshakeClient(nc, addr)
		if err != nil {
			lastErr = err
			continue
		}
		return c, nil
	}
	// The cause — refused, timed out half-open, version-rejected, link
	// fault — goes to telemetry only. The caller sees the bare sentinel,
	// so a peer that connects and stonewalls is indistinguishable from
	// one that refuses: failure signals must not become a side channel.
	n.deny("netd.dial", "connect", lastErr)
	return nil, ErrLinkDown
}

// Open opens a labeled channel to the peer at addr on behalf of t and
// returns the local descriptor. Creating the endpoint is a labeled
// create on the LOCAL kernel — the caller needs the capabilities for the
// channel labels, checked by InodeInitSecurity — and the labels travel
// to the peer in the Open frame. Whether anything ever arrives is the
// channel's business, not the opener's: after this returns, denials and
// losses are silent.
func (n *Node) Open(t *kernel.Task, addr string, labels difc.Labels) (kernel.FD, error) {
	labels = difc.InternLabels(labels)
	c, err := n.dial(addr)
	if err != nil {
		return -1, err
	}
	fd, file, err := n.cfg.Kernel.NetSocket(t, labels)
	if err != nil {
		return -1, err
	}
	id := c.allocChan()
	ch := &channel{conn: c, id: id, file: file, labels: labels}
	n.mu.Lock()
	n.chans = append(n.chans, ch)
	n.mu.Unlock()
	payload := AppendLabels(nil, labels)
	if n.cfg.Tracing {
		ctx := n.mintTrace()
		n.bindTrace(file, ctx)
		payload = AppendTraceExt(payload, ctx.NextHop())
	}
	if !c.enqueue(Frame{Version: Version, Type: FrameOpen, Channel: id, Payload: payload}) {
		// Queue full or link already dead: the Open is lost in flight.
		// The descriptor still exists; its sends just never arrive —
		// indistinguishable, by design, from a flaky network.
		n.count("net.open.dropped", 1)
	}
	c.flush()
	return fd, nil
}

// SendControl queues one opaque control payload for the peer at addr,
// dialing if no pooled connection is live. The frame ships at this
// node's next Pump, in the same write as everything else queued for that
// peer. Delivery is as reliable as the link: a dead link or full queue
// loses the payload silently, which the cluster layer's retry discipline
// (heartbeats re-carry membership) already tolerates.
func (n *Node) SendControl(addr string, payload []byte) error {
	c, err := n.dial(addr)
	if err != nil {
		return err
	}
	if !c.enqueue(Frame{Version: Version, Type: FrameCtrl, Payload: payload}) {
		n.count("net.ctrl.dropped", 1)
	}
	return nil
}

// OpenRouted opens a labeled channel whose Open travels with a routing
// blob for the next hop's Routed handler. The local endpoint is created
// by t under the full labeled-create checks, exactly as Open — the
// origin of a route is an ordinary principal.
func (n *Node) OpenRouted(t *kernel.Task, addr string, labels difc.Labels, meta []byte) (kernel.FD, error) {
	labels = difc.InternLabels(labels)
	c, err := n.dial(addr)
	if err != nil {
		return -1, err
	}
	fd, file, err := n.cfg.Kernel.NetSocket(t, labels)
	if err != nil {
		return -1, err
	}
	var tr *telemetry.TraceCtx
	if n.cfg.Tracing {
		ctx := n.mintTrace()
		n.bindTrace(file, ctx)
		tr = &ctx
	}
	n.sendRoutedOpen(c, file, labels, meta, tr)
	return fd, nil
}

// OpenRoutedAdopted opens the onward leg of a route from a relay hop. No
// local principal creates this endpoint — its labels were adopted on the
// inbound leg and travel onward verbatim — so the trusted transport
// attaches them itself, mirroring NetSocketAdopted on the accept side.
// Per-hop policy is enforced where it belongs: on the relay task's
// checked Recv/Send between the two adopted endpoints.
//
// trace, when non-nil, is the context the inbound leg carried: it is
// bound to the outbound endpoint (so this hop's Send verdicts share the
// trace id) and travels onward bumped by one hop.
func (n *Node) OpenRoutedAdopted(addr string, labels difc.Labels, meta []byte, trace *telemetry.TraceCtx) (*kernel.File, error) {
	labels = difc.InternLabels(labels)
	c, err := n.dial(addr)
	if err != nil {
		return nil, err
	}
	file := n.cfg.Kernel.NetSocketAdopted(func(ino *kernel.Inode) {
		if n.cfg.Module != nil {
			n.cfg.Module.AdoptInodeLabels(ino, labels)
		}
	})
	if trace != nil {
		n.bindTrace(file, *trace)
	}
	n.sendRoutedOpen(c, file, labels, meta, trace)
	return file, nil
}

func (n *Node) sendRoutedOpen(c *conn, file *kernel.File, labels difc.Labels, meta []byte, trace *telemetry.TraceCtx) {
	id := c.allocChan()
	ch := &channel{conn: c, id: id, file: file, labels: labels}
	n.mu.Lock()
	n.chans = append(n.chans, ch)
	n.mu.Unlock()
	payload := AppendRoutedOpen(nil, labels, meta)
	if trace != nil {
		payload = AppendTraceExt(payload, trace.NextHop())
	}
	if !c.enqueue(Frame{Version: Version, Type: FrameOpenRouted, Channel: id, Payload: payload}) {
		n.count("net.open.dropped", 1)
	}
	c.flush()
}

// Accept claims the oldest channel a peer has opened toward this node,
// installing its endpoint in t. kernel.ErrAgain when none is pending.
// The channel's labels came from the wire; t's ability to actually read
// or write the endpoint is checked per operation by the LSM, exactly as
// for a local socket.
func (n *Node) Accept(t *kernel.Task) (kernel.FD, difc.Labels, error) {
	n.mu.Lock()
	if len(n.offers) == 0 {
		n.mu.Unlock()
		return -1, difc.Labels{}, kernel.ErrAgain
	}
	ch := n.offers[0]
	n.offers = n.offers[1:]
	n.mu.Unlock()
	return n.cfg.Kernel.InstallFile(t, ch.file), ch.labels, nil
}

// Pump applies received frames and ships approved outbound bytes: the
// transport's event loop, driven explicitly so tests control ordering
// (Run wraps it for daemons). Returns the number of frames moved in
// either direction; zero means quiescent.
func (n *Node) Pump() int {
	n.pumpMu.Lock()
	defer n.pumpMu.Unlock()
	n.mu.Lock()
	conns := append([]*conn(nil), n.conns...)
	n.mu.Unlock()
	work := 0
	observe := n.rec != nil && n.rec.Active()
	for _, c := range conns {
		for _, f := range c.takeInbox() {
			work++
			if observe {
				t0 := time.Now()
				n.apply(c, f)
				n.rec.M.ObserveLayer(telemetry.LayerNet, time.Since(t0))
			} else {
				n.apply(c, f)
			}
		}
	}
	n.mu.Lock()
	chans := append([]*channel(nil), n.chans...)
	n.mu.Unlock()
	for _, ch := range chans {
		// Drain bytes the sender's Send check already approved into Data
		// frames, stopping at the connection's queue bound: backpressure
		// leaves the rest in the endpoint buffer, where a full buffer
		// makes further sends drop silently — the same unreliable-channel
		// behaviour a slow local reader causes.
		for {
			space := ch.conn.queueSpace() - HeaderSize
			if space <= 0 {
				break
			}
			chunk := n.cfg.DrainChunk
			if chunk > space {
				chunk = space
			}
			data := n.cfg.Kernel.NetDrain(ch.file, chunk)
			if len(data) == 0 {
				break
			}
			// Budget charge (ISSUE 10): every secrecy tag on the channel
			// spends against this peer BEFORE the frame is queued — the
			// charge strictly precedes the transport effect, so a denied
			// or crash-torn charge leaves no frame to leak. Exhaustion
			// drops the chunk silently: the bytes were already drained
			// from the endpoint, which is exactly what a full queue or a
			// lossy link does to them (§5.2) — the sender, who observed
			// success at Send, learns nothing new.
			if err := n.chargeSend(ch, len(data)); err != nil {
				n.count("net.budget.dropped", 1)
				continue
			}
			ch.conn.enqueue(Frame{Version: Version, Type: FrameData, Channel: ch.id, Payload: data})
			work++
		}
	}
	// Re-read the pool: a reply apply dialed to a new peer leaves in
	// this Pump too.
	n.mu.Lock()
	conns = append(conns[:0], n.conns...)
	n.mu.Unlock()
	for _, c := range conns {
		c.flush()
	}
	return work
}

// apply processes one received frame.
func (n *Node) apply(c *conn, f Frame) {
	switch f.Type {
	case FrameOpen:
		// A faulted receive loses the Open: the channel never
		// materializes on this side, and the opener cannot tell.
		if n.injectAt("net.open.recv") != faultNone {
			n.count("net.open.lost", 1)
			return
		}
		labels, consumed, err := ParseLabels(f.Payload)
		if err != nil {
			n.deny("netd.open", "labels", err)
			c.kill()
			return
		}
		tctx, traced, ok := n.parseOpenExt(c, f.Payload[consumed:])
		if !ok {
			return
		}
		labels = difc.InternLabels(labels)
		file := n.cfg.Kernel.NetSocketAdopted(func(ino *kernel.Inode) {
			if n.cfg.Module != nil {
				n.cfg.Module.AdoptInodeLabels(ino, labels)
			}
		})
		if traced {
			n.bindTrace(file, tctx)
		}
		ch := &channel{conn: c, id: f.Channel, file: file, labels: labels, accepted: true}
		n.mu.Lock()
		n.chans = append(n.chans, ch)
		n.offers = append(n.offers, ch)
		n.mu.Unlock()
		n.count("net.open.accepted", 1)
	case FrameData:
		switch n.injectAt("net.frame.recv") {
		case faultError:
			n.count("net.rx.dropped", 1)
			return
		case faultCrash:
			c.kill()
			return
		}
		ch := n.findChan(c, f.Channel)
		if ch == nil {
			// Data for a channel this side never saw (lost Open, or one
			// closed underneath): dropped, silently.
			n.count("net.rx.unknown-channel", 1)
			return
		}
		if n.cfg.Kernel.NetFeed(ch.file, f.Payload) {
			n.count("net.rx.frames", 1)
		} else {
			n.count("net.rx.overflow", 1)
		}
	case FrameClose:
		n.removeChan(c, f.Channel)
	case FrameCtrl:
		// Control payloads belong to the layer above; no handler means no
		// layer, and the payload is dropped fail-closed.
		if n.cfg.Control == nil {
			n.count("net.ctrl.unhandled", 1)
			return
		}
		n.cfg.Control(c.peerID, f.Payload)
	case FrameOpenRouted:
		if n.injectAt("net.open.recv") != faultNone {
			n.count("net.open.lost", 1)
			return
		}
		labels, meta, ext, err := ParseRoutedOpen(f.Payload)
		if err != nil {
			n.deny("netd.open", "labels", err)
			c.kill()
			return
		}
		tctx, traced, ok := n.parseOpenExt(c, ext)
		if !ok {
			return
		}
		if n.cfg.Routed == nil {
			n.count("net.open.unrouted", 1)
			return
		}
		labels = difc.InternLabels(labels)
		file := n.cfg.Kernel.NetSocketAdopted(func(ino *kernel.Inode) {
			if n.cfg.Module != nil {
				n.cfg.Module.AdoptInodeLabels(ino, labels)
			}
		})
		if traced {
			n.bindTrace(file, tctx)
		}
		ch := &channel{conn: c, id: f.Channel, file: file, labels: labels, accepted: true}
		switch n.cfg.Routed(RoutedOffer{PeerID: c.peerID, Channel: f.Channel,
			Labels: labels, Meta: meta, File: file, Trace: tctx, Traced: traced}) {
		case RoutedDeliver:
			n.mu.Lock()
			n.chans = append(n.chans, ch)
			n.offers = append(n.offers, ch)
			n.mu.Unlock()
			n.count("net.open.accepted", 1)
		case RoutedClaim:
			n.mu.Lock()
			n.chans = append(n.chans, ch)
			n.mu.Unlock()
			n.count("net.open.relayed", 1)
		default:
			// Dropped fail-closed: the endpoint is never published and the
			// opener cannot distinguish the refusal from a lossy link.
			n.count("net.open.refused", 1)
		}
	default:
		// Hello frames after the handshake are a protocol violation.
		n.deny("netd.frame", "unexpected", fmt.Errorf("%s frame outside handshake", f.Type))
		c.kill()
	}
}

// parseOpenExt decodes the trailing extension region of an Open or
// OpenRouted payload. An unknown extension VERSION refuses just this
// open fail-closed — a future peer is not an attacker, the connection
// stands — while structurally broken bytes kill the link like any other
// malformed frame. ok=false means the caller must drop the open.
func (n *Node) parseOpenExt(c *conn, ext []byte) (telemetry.TraceCtx, bool, bool) {
	tctx, traced, err := ParseTraceExt(ext)
	if err == nil {
		return tctx, traced, true
	}
	n.deny("netd.open", "trace-ext", err)
	if errors.Is(err, ErrTraceVersion) {
		n.count("net.open.ext-refused", 1)
		return telemetry.TraceCtx{}, false, false
	}
	c.kill()
	return telemetry.TraceCtx{}, false, false
}

func (n *Node) findChan(c *conn, id uint32) *channel {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ch := range n.chans {
		if ch.conn == c && ch.id == id {
			return ch
		}
	}
	return nil
}

func (n *Node) removeChan(c *conn, id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, ch := range n.chans {
		if ch.conn == c && ch.id == id {
			n.chans = append(n.chans[:i], n.chans[i+1:]...)
			return
		}
	}
}

// Run pumps on a fixed cadence until Close; daemon mode.
func (n *Node) Run(interval time.Duration) {
	for {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		n.Pump()
		time.Sleep(interval)
	}
}

// Close tears the node down: listener closed, every link killed, all
// goroutines joined. In-flight frames are lost, which the semantics
// already permit.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := append([]*conn(nil), n.conns...)
	ln := n.ln
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.kill()
	}
	n.wg.Wait()
}

// --- telemetry and fault plumbing ---

// deny records transport-layer provenance (LayerNet): handshake
// rejections, malformed frames, dead links. Policy denials never come
// through here — they are emitted by the kernels' own hook wrappers.
// chargeSend meters one drained chunk against the flow budget: each
// secrecy tag on the channel spends ceil(len/1KiB) units (min 1) keyed
// to the receiving peer's node id. A nil ledger or an unlabeled channel
// charges nothing. The denial carries LayerBudget provenance; the caller
// implements the silent drop.
func (n *Node) chargeSend(ch *channel, size int) error {
	led := n.cfg.Kernel.Budget()
	if led == nil || ch.labels.S.IsEmpty() {
		return nil
	}
	cost := budget.CostBytes(size)
	if err := led.ChargeLabel("send", ch.labels.S, ch.conn.peerID, cost); err != nil {
		if n.rec != nil && n.rec.Active() {
			n.rec.EmitDeny(telemetry.LayerBudget, "netd.send.budget", "send", 0, 0, err)
		}
		return err
	}
	return nil
}

func (n *Node) deny(site, op string, err error) {
	if n.rec == nil || !n.rec.Active() {
		return
	}
	n.rec.EmitDeny(telemetry.LayerNet, site, op, 0, 0, err)
}

// count bumps a free-form transport metric.
func (n *Node) count(name string, delta int) {
	if n.rec == nil || !n.rec.Active() {
		return
	}
	n.rec.M.Extra.Get(name).Add(0, uint64(delta))
}

// injectAt consults the fault injector at a transport site, recording
// the trip. Delay faults yield inside the injector; Error and Crash are
// interpreted by the call site (drop vs link kill).
func (n *Node) injectAt(site string) faultinject.Kind {
	if n.cfg.Injector == nil {
		return faultNone
	}
	k := n.cfg.Injector.At(site)
	if k == faultError || k == faultCrash {
		if n.rec != nil && n.rec.Active() {
			n.rec.EmitFaultTrip(telemetry.LayerNet, site, 0, k.String())
		}
	}
	return k
}
