package netlabel

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// testNode is one kernel with its Laminar module, a user task, a private
// telemetry recorder, and a listening transport node.
type testNode struct {
	k    *kernel.Kernel
	mod  *lsm.Module
	user *kernel.Task
	rec  *telemetry.Recorder
	node *Node
}

// bootNode builds a full kernel+LSM stack with a listening Node. cfg's
// Kernel/Module/Recorder are filled in.
func bootNode(t testing.TB, cfg Config) *testNode {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel, cfg.Module, cfg.Recorder = k, mod, rec
	n := NewNode(cfg)
	if err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return &testNode{k: k, mod: mod, user: user, rec: rec, node: n}
}

// pumpUntil pumps the nodes until cond holds or a deadline passes.
func pumpUntil(t testing.TB, cond func() bool, nodes ...*testNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			n.node.Pump()
		}
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timed out pumping")
}

// acceptOne pumps until the accepting node hands out a channel.
func acceptOne(t testing.TB, accepter *testNode, nodes ...*testNode) (kernel.FD, difc.Labels) {
	t.Helper()
	var fd kernel.FD
	var labels difc.Labels
	pumpUntil(t, func() bool {
		var err error
		fd, labels, err = accepter.node.Accept(accepter.user)
		return err == nil
	}, nodes...)
	return fd, labels
}

func TestRemoteFlowAllowed(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1})
	b := bootNode(t, Config{NodeID: 2})

	fdA, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	fdB, labels := acceptOne(t, b, a, b)
	if !labels.IsEmpty() {
		t.Fatalf("accepted labels = %v, want empty", labels)
	}

	if _, err := a.k.Send(a.user, fdA, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var got string
	pumpUntil(t, func() bool {
		n, err := b.k.Recv(b.user, fdB, buf)
		if err == nil && n > 0 {
			got += string(buf[:n])
		}
		return got == "over the wire"
	}, a, b)

	// And the reverse direction on the same channel.
	if _, err := b.k.Send(b.user, fdB, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	got = ""
	pumpUntil(t, func() bool {
		n, err := a.k.Recv(a.user, fdA, buf)
		if err == nil && n > 0 {
			got += string(buf[:n])
		}
		return got == "ack"
	}, a, b)
}

func TestRemoteDeniedRecvCheckedByReceivingKernel(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1})
	b := bootNode(t, Config{NodeID: 2})

	// Alice allocates a tag and opens a secret channel; her caps admit
	// the labeled create on HER kernel.
	tag, err := a.k.AllocTag(a.user)
	if err != nil {
		t.Fatal(err)
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}
	fdA, err := a.node.Open(a.user, b.node.Addr(), secret)
	if err != nil {
		t.Fatal(err)
	}
	fdB, labels := acceptOne(t, b, a, b)
	if !labels.Equal(secret) {
		t.Fatalf("accepted labels = %v, want %v", labels, secret)
	}

	if _, err := a.k.Send(a.user, fdA, []byte("classified")); err != nil {
		t.Fatal(err)
	}
	// Wait for the payload to arrive at B's endpoint, then show the
	// unlabeled reader is denied by B's OWN kernel — the fd-level check
	// fires before the buffer is inspected, so arrival is invisible.
	denials0 := b.rec.M.Denials.Load()
	var derr error
	pumpUntil(t, func() bool {
		_, derr = b.k.Recv(b.user, fdB, make([]byte, 32))
		return errors.Is(derr, kernel.ErrAccess)
	}, a, b)
	if b.rec.M.Denials.Load() == denials0 {
		t.Error("remote deny left no telemetry on the receiving kernel")
	}

	// Granted the tag and labeled up, the same task reads the data.
	b.mod.GrantCapability(b.user, tag, difc.CapPlus)
	if err := b.k.SetTaskLabel(b.user, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	var got string
	pumpUntil(t, func() bool {
		n, err := b.k.Recv(b.user, fdB, buf)
		if err == nil && n > 0 {
			got += string(buf[:n])
		}
		return got == "classified"
	}, a, b)
}

func TestRemoteSenderCannotDistinguishDrop(t *testing.T) {
	// The silent-drop regression at network scope: a secrecy-violating
	// send must return exactly what a delivered send returns, and nothing
	// may reach the peer.
	a := bootNode(t, Config{NodeID: 1})
	b := bootNode(t, Config{NodeID: 2})

	fdA, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	fdB, _ := acceptOne(t, b, a, b)

	// Delivered baseline.
	nOK, errOK := a.k.Send(a.user, fdA, []byte("public"))

	// Taint the sender: the unlabeled channel can no longer carry its
	// writes (secrecy would leak), so the send must silently drop.
	tag, _ := a.k.AllocTag(a.user)
	a.mod.GrantCapability(a.user, tag, difc.CapPlus)
	if err := a.k.SetTaskLabel(a.user, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	nDrop, errDrop := a.k.Send(a.user, fdA, []byte("secret"))
	if nDrop != 6 || errDrop != nil {
		t.Fatalf("dropped send = (%d, %v); delivered was (%d, %v) — distinguishable", nDrop, errDrop, nOK, errOK)
	}

	// Only the public bytes ever cross the wire.
	buf := make([]byte, 64)
	var got string
	pumpUntil(t, func() bool {
		n, err := b.k.Recv(b.user, fdB, buf)
		if err == nil && n > 0 {
			got += string(buf[:n])
		}
		return got == "public"
	}, a, b)
	for i := 0; i < 20; i++ {
		a.node.Pump()
		b.node.Pump()
	}
	if n, err := b.k.Recv(b.user, fdB, buf); err == nil {
		t.Fatalf("secret leaked to peer: %q", buf[:n])
	}
}

func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	b := bootNode(t, Config{NodeID: 2})
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
	// Speak protocol version 2 at a version-1 node.
	bad := Frame{Version: 2, Type: FrameHello, Payload: appendHello(nil, 2, 77)}
	if _, err := nc.Write(appendFrame(nil, bad)); err != nil {
		t.Fatal(err)
	}
	// The node must reject fail-closed: connection torn down, no ack.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 64)); err == nil {
		t.Fatalf("got %d bytes back, want rejection", n)
	}
	if denies.Load() == 0 {
		t.Error("version rejection left no LayerNet provenance")
	}
}

func TestMalformedFrameKillsConnection(t *testing.T) {
	b := bootNode(t, Config{NodeID: 2})
	var denies atomic.Int32
	unsub := b.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerNet && e.Site == "netd.frame" {
			denies.Add(1)
		}
	})
	defer unsub()

	nc, err := net.Dial("tcp", b.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrameSync(nc, Frame{Version: Version, Type: FrameHello,
		Payload: appendHello(nil, Version, 7)}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrameSync(nc, 5*time.Second); err != nil || f.Type != FrameHelloAck {
		t.Fatalf("handshake: %v (type %v)", err, f.Type)
	}
	if _, err := nc.Write([]byte("this is not a frame.")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 16)); err == nil {
		t.Fatal("connection survived malformed frame")
	}
	if denies.Load() == 0 {
		t.Error("malformed frame left no LayerNet provenance")
	}
}

func TestConnectionPoolReuse(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1})
	b := bootNode(t, Config{NodeID: 2})

	if _, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{}); err != nil {
		t.Fatal(err)
	}
	a.node.mu.Lock()
	conns, chans := len(a.node.conns), len(a.node.chans)
	ids := []uint32{a.node.chans[0].id, a.node.chans[1].id}
	a.node.mu.Unlock()
	if conns != 1 {
		t.Fatalf("two opens used %d connections, want pooled 1", conns)
	}
	if chans != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("channel ids = %v, want odd dialer ids 1,3", ids)
	}
	// Both channels are usable.
	acceptOne(t, b, a, b)
	acceptOne(t, b, a, b)
}

func TestBatchingDeliversAll(t *testing.T) {
	for _, batching := range []bool{false, true} {
		a := bootNode(t, Config{NodeID: 1, Batching: batching})
		b := bootNode(t, Config{NodeID: 2, Batching: batching})
		fdA, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{})
		if err != nil {
			t.Fatal(err)
		}
		fdB, _ := acceptOne(t, b, a, b)
		want := ""
		for i := 0; i < 10; i++ {
			msg := string(rune('a' + i))
			want += msg
			if _, err := a.k.Send(a.user, fdA, []byte(msg)); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 64)
		got := ""
		pumpUntil(t, func() bool {
			n, err := b.k.Recv(b.user, fdB, buf)
			if err == nil && n > 0 {
				got += string(buf[:n])
			}
			return got == want
		}, a, b)
	}
}

func TestBackpressureDeliversInOrder(t *testing.T) {
	// A tiny outbound queue forces the drain loop to stop early every
	// pump; backpressure must stall, never drop or reorder, the stream.
	a := bootNode(t, Config{NodeID: 1, MaxQueue: HeaderSize + 64, DrainChunk: 16})
	b := bootNode(t, Config{NodeID: 2})
	fdA, err := a.node.Open(a.user, b.node.Addr(), difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	fdB, _ := acceptOne(t, b, a, b)

	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	if n, err := a.k.Send(a.user, fdA, msg); err != nil || n != len(msg) {
		t.Fatalf("send = %d, %v", n, err)
	}
	var got []byte
	buf := make([]byte, 256)
	pumpUntil(t, func() bool {
		n, err := b.k.Recv(b.user, fdB, buf)
		if err == nil && n > 0 {
			got = append(got, buf[:n]...)
		}
		return len(got) >= len(msg)
	}, a, b)
	if string(got) != string(msg) {
		t.Fatal("stream corrupted under backpressure")
	}
}

func TestAcceptWithoutOffers(t *testing.T) {
	b := bootNode(t, Config{NodeID: 2})
	if _, _, err := b.node.Accept(b.user); !errors.Is(err, kernel.ErrAgain) {
		t.Fatalf("accept with no offers = %v, want EAGAIN", err)
	}
}

// BenchmarkPumpData1K moves one 1 KiB message over loopback per
// iteration: Send, the sender's Pump, then the receiver's Pump and Recv
// until the message is in.
func BenchmarkPumpData1K(b *testing.B) {
	src := bootNode(b, Config{NodeID: 1, Batching: true})
	dst := bootNode(b, Config{NodeID: 2, Batching: true})
	fdSrc, err := src.node.Open(src.user, dst.node.Addr(), difc.Labels{})
	if err != nil {
		b.Fatal(err)
	}
	fdDst, _ := acceptOne(b, dst, src, dst)
	msg := make([]byte, 1024)
	buf := make([]byte, 2*len(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.k.Send(src.user, fdSrc, msg); err != nil {
			b.Fatal(err)
		}
		src.node.Pump()
		deadline := time.Now().Add(5 * time.Second)
		for got := 0; got < len(msg); {
			dst.node.Pump()
			if n, err := dst.k.Recv(dst.user, fdDst, buf); err == nil {
				got += n
			}
			if time.Now().After(deadline) {
				b.Fatal("message never arrived")
			}
		}
	}
}

// BenchmarkPumpBulk moves 1 MiB per iteration in 16 KiB sends. Each
// channel's 64 KiB endpoint pipe is filled before the Pumps that move it
// (a Send into a full pipe is dropped silently). With four channels one
// Pump's batch is the whole 256 KiB queue, larger than the buffer a
// connection keeps for reuse. live-MB is the heap still in use after the
// run and a GC.
func BenchmarkPumpBulk(b *testing.B) {
	for _, nch := range []int{1, 4} {
		b.Run(fmt.Sprintf("channels=%d", nch), func(b *testing.B) { benchPumpBulk(b, nch) })
	}
}

func benchPumpBulk(b *testing.B, nch int) {
	const size, chunk, perPipe = 1 << 20, 16 * 1024, 4
	src := bootNode(b, Config{NodeID: 1, Batching: true})
	dst := bootNode(b, Config{NodeID: 2, Batching: true})
	fdSrc := make([]kernel.FD, nch)
	fdDst := make([]kernel.FD, nch)
	for i := range fdSrc {
		var err error
		if fdSrc[i], err = src.node.Open(src.user, dst.node.Addr(), difc.Labels{}); err != nil {
			b.Fatal(err)
		}
		fdDst[i], _ = acceptOne(b, dst, src, dst)
	}
	msg := make([]byte, chunk)
	buf := make([]byte, perPipe*chunk)
	round := nch * perPipe * chunk
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for done := 0; done < size; done += round {
			for _, fd := range fdSrc {
				for j := 0; j < perPipe; j++ {
					if _, err := src.k.Send(src.user, fd, msg); err != nil {
						b.Fatal(err)
					}
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for got := 0; got < round; {
				src.node.Pump()
				dst.node.Pump()
				for _, fd := range fdDst {
					for {
						n, err := dst.k.Recv(dst.user, fd, buf)
						if err != nil {
							break
						}
						got += n
					}
				}
				if time.Now().After(deadline) {
					b.Fatal("bulk round never arrived")
				}
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/1e6, "live-MB")
}
