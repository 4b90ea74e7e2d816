package telemetry

import "sync"

// Cluster-wide flow tracing (DESIGN.md §16). A TraceCtx follows one
// labeled channel across kernels: the origin node mints it when the
// channel is opened, the transport carries it in a versioned trailing
// extension on Open/OpenRouted payloads, and every relay hop re-attaches
// it to the endpoint it adopts, so the verdict events of all hops share
// one trace id and explain-route can reconstruct the path from N dumps.
//
// Covert-channel invariant: trace bytes must never widen what a receiver
// can learn. Every field is derivable from data the receiver may already
// see — the origin's node id and incarnation epoch travel in the
// handshake and control plane, the hop counter is the route length the
// relay itself constructs, and the trace id is (node id << 32 | per-node
// counter), exactly as observable as the channel ids the transport
// already assigns. Nothing label- or payload-dependent is ever encoded,
// and enforcement never reads the trace registry: binding and stamping
// happen only on the telemetry side of the Active() gate, which the
// traced-vs-untraced differential oracle (tracediff) pins down as
// byte-identical verdict streams.

// TraceCtx is the compact causal context carried across hops.
type TraceCtx struct {
	TraceID     uint64 // origin node id << 32 | per-node open counter
	Hop         uint8  // hops traversed before this node (origin = 0)
	Origin      uint64 // minting node's id
	OriginEpoch uint64 // minting node's incarnation epoch
}

// NextHop is the context a node transmits onward: one hop further from
// the origin.
func (c TraceCtx) NextHop() TraceCtx {
	c.Hop++
	return c
}

// traceReg maps endpoint inode numbers to the trace context bound to
// them. It lives beside the recorder (not inside the kernel) so
// enforcement code never touches it; Emit consults it only for events
// that already carry an inode number, behind a lock-free emptiness
// check.
type traceReg struct {
	mu    sync.Mutex
	byIno map[uint64]TraceCtx
}

// SetNodeIdentity records which node (and incarnation epoch) this
// recorder observes; Emit stamps both onto every event so multi-node
// dumps merge without filename conventions.
func (r *Recorder) SetNodeIdentity(node, epoch uint64) {
	r.nodeID.Store(node)
	r.nodeEpoch.Store(epoch)
}

// NodeIdentity reports the recorder's node id and incarnation epoch.
func (r *Recorder) NodeIdentity() (node, epoch uint64) {
	return r.nodeID.Load(), r.nodeEpoch.Load()
}

// BindTrace attaches a trace context to an endpoint inode: every
// subsequent event carrying that inode number is stamped with the
// context. Binding is telemetry-only state — it never influences a
// verdict.
func (r *Recorder) BindTrace(ino uint64, ctx TraceCtx) {
	if ino == 0 || ctx.TraceID == 0 {
		return
	}
	r.traces.mu.Lock()
	if r.traces.byIno == nil {
		r.traces.byIno = make(map[uint64]TraceCtx)
	}
	if _, ok := r.traces.byIno[ino]; !ok {
		r.traceBound.Add(1)
	}
	r.traces.byIno[ino] = ctx
	r.traces.mu.Unlock()
}

// UnbindTrace removes an inode's trace binding (endpoint teardown).
func (r *Recorder) UnbindTrace(ino uint64) {
	r.traces.mu.Lock()
	if _, ok := r.traces.byIno[ino]; ok {
		delete(r.traces.byIno, ino)
		r.traceBound.Add(-1)
	}
	r.traces.mu.Unlock()
}

// traceFor looks up the context bound to an inode.
func (r *Recorder) traceFor(ino uint64) (TraceCtx, bool) {
	if r.traceBound.Load() == 0 {
		return TraceCtx{}, false
	}
	r.traces.mu.Lock()
	ctx, ok := r.traces.byIno[ino]
	r.traces.mu.Unlock()
	return ctx, ok
}

// TraceBound reports whether an inode has a trace binding. One atomic
// load when no traces exist anywhere — the common case on hot paths.
func (r *Recorder) TraceBound(ino uint64) bool {
	if r.traceBound.Load() == 0 {
		return false
	}
	_, ok := r.traceFor(ino)
	return ok
}

// stampTrace fills an event's node identity and trace fields from the
// registry. Called from Emit, i.e. only past the Active/Verbose gate.
func (r *Recorder) stampTrace(e *Event) {
	if e.Node == 0 {
		e.Node = r.nodeID.Load()
		e.NodeEpoch = r.nodeEpoch.Load()
	}
	if e.TraceID != 0 || e.Ino == 0 || r.traceBound.Load() == 0 {
		return
	}
	if ctx, ok := r.traceFor(e.Ino); ok {
		e.TraceID = ctx.TraceID
		e.TraceHop = ctx.Hop
		e.TraceOrigin = ctx.Origin
		e.TraceEpoch = ctx.OriginEpoch
	}
}
