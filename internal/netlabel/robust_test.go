package netlabel

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// TestDialBackoffSequencePinned pins the exact deterministic backoff
// schedule: doubling from backoffBase, saturating at backoffMax forever.
// The shift is bounded BEFORE it is taken, so huge retry budgets (cluster
// mode re-dials suspects for whole epochs) can never overflow the
// duration into a negative or absurd sleep.
func TestDialBackoffSequencePinned(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{
		0, // attempt 0: the first dial never sleeps
		1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms,
		128 * ms,                     // attempt 8 reaches the ceiling...
		128 * ms, 128 * ms, 128 * ms, // ...and stays there
	}
	for attempt, w := range want {
		if got := dialBackoff(attempt); got != w {
			t.Errorf("dialBackoff(%d) = %v, want %v", attempt, got, w)
		}
	}
	// Attempts far past any shift width stay pinned to the ceiling.
	for _, attempt := range []int{63, 64, 65, 1000, 1 << 20} {
		if got := dialBackoff(attempt); got != backoffMax {
			t.Errorf("dialBackoff(%d) = %v, want saturated %v", attempt, got, backoffMax)
		}
	}
	if got := dialBackoff(-5); got != 0 {
		t.Errorf("dialBackoff(-5) = %v, want 0", got)
	}
}

// TestHalfOpenPeerDroppedFailClosed connects to a node and never sends a
// Hello: the node must cut the connection off at the handshake deadline
// with LayerNet provenance, and no channel may ever materialize.
func TestHalfOpenPeerDroppedFailClosed(t *testing.T) {
	b := bootNode(t, Config{NodeID: 2, HandshakeTimeout: 100 * time.Millisecond})
	var denies atomic.Int32
	unsub := b.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerNet && e.Site == "netd.handshake" {
			denies.Add(1)
		}
	})
	defer unsub()

	nc, err := net.Dial("tcp", b.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Stonewall: connected, silent. The node must hang up on us.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, rerr := nc.Read(make([]byte, 16)); rerr == nil {
		t.Fatalf("half-open peer was sent %d bytes, want silent teardown", n)
	}
	if denies.Load() == 0 {
		t.Error("half-open timeout left no LayerNet provenance")
	}
	b.node.Pump()
	if _, _, err := b.node.Accept(b.user); err == nil {
		t.Error("half-open peer produced a deliverable channel")
	}
}

// TestHalfOpenDialIndistinguishable opens toward (a) a listener that
// accepts and stonewalls and (b) an address nothing listens on. Both must
// surface the BARE ErrLinkDown sentinel — byte-identical errors — so a
// sender cannot use dial failures to distinguish a stonewalling peer from
// an absent one (failure signals must not become a side channel).
func TestHalfOpenDialIndistinguishable(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1, DialRetries: 1, HandshakeTimeout: 100 * time.Millisecond})

	// (a) accepts the TCP connection, never answers the Hello.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			defer c.Close()
		}
	}()
	_, errStonewall := a.node.Open(a.user, ln.Addr().String(), difc.Labels{})

	// (b) nothing listening at all.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	_, errAbsent := a.node.Open(a.user, deadAddr, difc.Labels{})

	if !errors.Is(errStonewall, ErrLinkDown) || !errors.Is(errAbsent, ErrLinkDown) {
		t.Fatalf("want ErrLinkDown from both, got %v / %v", errStonewall, errAbsent)
	}
	if errStonewall.Error() != errAbsent.Error() {
		t.Fatalf("distinguishable dial failures: %q vs %q", errStonewall, errAbsent)
	}
}

// TestVersionMismatchProvenanceReplayable pins the provenance contract of
// a handshake version rejection: the LayerNet event must carry the peer
// (address and claimed node id) and both version pairs, and the record
// must survive the explain-denial pipeline (laminar-trace renders it via
// telemetry.Explain on a dumped event).
func TestVersionMismatchProvenanceReplayable(t *testing.T) {
	b := bootNode(t, Config{NodeID: 2})
	var got atomic.Pointer[telemetry.Event]
	unsub := b.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerNet && e.Site == "netd.handshake" && e.Op == "version" {
			got.Store(&e)
		}
	})
	defer unsub()

	nc, err := net.Dial("tcp", b.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	local := nc.LocalAddr().String()
	bad := Frame{Version: 2, Type: FrameHello, Payload: appendHello(nil, 2, 77)}
	if _, err := nc.Write(appendFrame(nil, bad)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, rerr := nc.Read(make([]byte, 64)); rerr == nil {
		t.Fatalf("got %d bytes back, want rejection", n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e := got.Load()
	if e == nil {
		t.Fatal("version rejection emitted no netd.handshake/version event")
	}
	for _, want := range []string{local, "node 77", "version 2/2", "want 1"} {
		if !strings.Contains(e.Detail, want) {
			t.Errorf("event detail %q missing %q", e.Detail, want)
		}
	}
	// The same record must explain after a dump/replay round-trip, which
	// is exactly what laminar-trace explain-denial runs.
	text := telemetry.Explain(*e)
	for _, want := range []string{"netd.handshake", "node 77", "version 2/2"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain-denial output %q missing %q", text, want)
		}
	}
}

// TestDeadLinksFreeAcceptSlots: a connection killed by a link fault
// stops counting against MaxConns once its inbox is applied. Otherwise
// a run of link kills fills the table and the node sheds every
// reconnect for good — a permanent partition, not message loss.
func TestDeadLinksFreeAcceptSlots(t *testing.T) {
	var got atomic.Int32
	b := bootNode(t, Config{MaxConns: 2, Control: func(uint64, []byte) { got.Add(1) }})
	a := bootNode(t, Config{})
	addr := b.node.Addr()
	allDead := func(n *Node) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, c := range n.conns {
			if !c.isDead() {
				return false
			}
		}
		return true
	}
	for round := int32(1); round <= 5; round++ {
		if err := a.node.SendControl(addr, []byte("ping")); err != nil {
			t.Fatalf("round %d: dial refused: %v", round, err)
		}
		pumpUntil(t, func() bool { return got.Load() == round }, a, b)
		// The link dies; B's reader sees the reset and marks its end dead.
		a.node.mu.Lock()
		c := a.node.dialed[addr]
		a.node.mu.Unlock()
		c.kill()
		pumpUntil(t, func() bool { return allDead(b.node) }, b)
	}
	if n := b.rec.M.Extra.Get("net.accept.shed").Load(); n != 0 {
		t.Errorf("accept shed %d reconnects of dead links", n)
	}
}

// TestDeadLinksForgetChannelsAndTraces: a dead link takes its channels,
// its pool entry and their trace bindings with it once Pump has applied
// its inbox, so open → accept → link death cycles leave both nodes with
// only the live link's state. Without the reap, each cycle leaves one
// channel, one conn and one trace binding behind on each side for good.
func TestDeadLinksForgetChannelsAndTraces(t *testing.T) {
	const cycles = 50
	a := bootNode(t, Config{NodeID: 1, Tracing: true})
	b := bootNode(t, Config{NodeID: 2, Tracing: true})
	live := bootNode(t, Config{NodeID: 3, Tracing: true})
	addr := b.node.Addr()
	if _, err := live.node.Open(live.user, addr, difc.Labels{}); err != nil {
		t.Fatal(err)
	}
	acceptOne(t, b, live, b)

	sizes := func(n *Node) (conns, chans, dialed int) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.conns), len(n.chans), len(n.dialed)
	}
	// inodes lists the endpoints of n's channels to one peer.
	inodes := func(n *Node, peer uint64) (inos []uint64) {
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, ch := range n.chans {
			if ch.conn.peerID == peer {
				inos = append(inos, uint64(ch.file.Inode.Ino))
			}
		}
		return inos
	}
	liveIno := inodes(b.node, 3)
	var deadA, deadB []uint64
	for i := 0; i < cycles; i++ {
		if _, err := a.node.Open(a.user, addr, difc.Labels{}); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		acceptOne(t, b, a, b)
		deadA = append(deadA, inodes(a.node, 2)...)
		deadB = append(deadB, inodes(b.node, 1)...)
		a.node.mu.Lock()
		c := a.node.dialed[addr]
		a.node.mu.Unlock()
		c.kill()
		pumpUntil(t, func() bool {
			ac, _, _ := sizes(a.node)
			bc, _, _ := sizes(b.node)
			return ac == 0 && bc == 1
		}, a, b)
	}

	if conns, chans, dialed := sizes(a.node); conns != 0 || chans != 0 || dialed != 0 {
		t.Errorf("opener after %d dead links: %d conns, %d channels, %d pooled; want 0, 0, 0", cycles, conns, chans, dialed)
	}
	if conns, chans, _ := sizes(b.node); conns != 1 || chans != 1 {
		t.Errorf("accepter after %d dead links: %d conns, %d channels; want the live link's 1, 1", cycles, conns, chans)
	}
	if len(deadA) != cycles || len(deadB) != cycles {
		t.Fatalf("saw %d opener and %d accepter channels on dead links, want %d each", len(deadA), len(deadB), cycles)
	}
	for _, ino := range deadA {
		if a.rec.TraceBound(ino) {
			t.Fatalf("opener still binds a trace to dead channel inode %d", ino)
		}
	}
	for _, ino := range deadB {
		if b.rec.TraceBound(ino) {
			t.Fatalf("accepter still binds a trace to dead channel inode %d", ino)
		}
	}
	if len(liveIno) != 1 || !b.rec.TraceBound(liveIno[0]) {
		t.Errorf("live channel's trace binding lost (inodes %v)", liveIno)
	}
}
