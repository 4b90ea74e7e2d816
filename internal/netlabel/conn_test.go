package netlabel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// countingConn counts Write calls, and the bytes they carry, on the
// wrapped connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
	bytes  atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// chunkedConn hands a fixed stream to the reader at most chunk bytes per
// Read, then io.EOF: every split a TCP connection may produce, without a
// goroutine handoff per read.
type chunkedConn struct {
	net.Conn // nil: the reader uses only Read, SetReadDeadline and Close
	rest     []byte
	chunk    int
}

func (c *chunkedConn) Read(b []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), c.chunk)], c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *chunkedConn) SetReadDeadline(time.Time) error { return nil }
func (c *chunkedConn) Close() error                    { return nil }

// frameReader decodes the far end of a connection with a real conn's
// readLoop, on a bare node with its own recorder.
type frameReader struct {
	rec *telemetry.Recorder
	c   *conn
}

func newFrameReader(t *testing.T, nc net.Conn) *frameReader {
	t.Helper()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	n := NewNode(Config{Recorder: rec})
	r := &frameReader{rec: rec, c: newConn(n, nc, "", false, 1)}
	n.wg.Add(1)
	go r.c.readLoop()
	t.Cleanup(func() {
		r.c.kill()
		n.wg.Wait()
	})
	return r
}

// await collects inbox frames until want have arrived.
func (r *frameReader) await(t *testing.T, want int) []Frame {
	t.Helper()
	var got []Frame
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want && time.Now().Before(deadline) {
		got = append(got, r.c.takeInbox()...)
		time.Sleep(100 * time.Microsecond)
	}
	if len(got) != want {
		t.Fatalf("received %d frames, want %d", len(got), want)
	}
	return got
}

// decodeAll is the reference: DecodeFrame applied to a whole stream.
func decodeAll(t *testing.T, stream []byte) []Frame {
	t.Helper()
	var out []Frame
	for len(stream) > 0 {
		f, n, err := DecodeFrame(stream)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		out = append(out, f)
		stream = stream[n:]
	}
	return out
}

// TestReaderDecodesInPlace: the reader's fixed buffer yields exactly the
// frames DecodeFrame finds in the whole stream, however the bytes are
// split into reads, including a full default Data frame and two
// back-to-back frames larger than the buffer.
func TestReaderDecodesInPlace(t *testing.T) {
	big := make([]byte, MaxPayload)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var stream []byte
	for i := 0; i < 40; i++ {
		stream = AppendFrame(stream, Frame{Version: Version, Type: FrameData, Channel: uint32(i),
			Payload: bytes.Repeat([]byte{byte(i)}, 1+i*97)})
		stream = AppendFrame(stream, Frame{Version: Version, Type: FrameCtrl,
			Payload: []byte(fmt.Sprintf("ctrl %d", i))})
		switch i {
		case 10:
			stream = AppendFrame(stream, Frame{Version: Version, Type: FrameData, Channel: 98,
				Payload: big[:defaultDrainChunk]})
		case 20:
			stream = AppendFrame(stream, Frame{Version: Version, Type: FrameData, Channel: 99, Payload: big})
			stream = AppendFrame(stream, Frame{Version: Version, Type: FrameData, Channel: 99,
				Payload: big[:MaxPayload/2]})
		}
	}
	stream = AppendFrame(stream, Frame{Version: Version, Type: FrameOpen, Channel: 3,
		Payload: AppendLabels(nil, difc.Labels{S: difc.NewLabel(1, 2)})})
	stream = AppendFrame(stream, Frame{Version: Version, Type: FrameClose, Channel: 3})
	want := decodeAll(t, stream)

	for _, tc := range []struct {
		name  string
		chunk int
	}{{"1-byte", 1}, {"7-byte", 7}, {"burst", len(stream)}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFrameReader(t, &chunkedConn{rest: stream, chunk: tc.chunk})
			if got := r.await(t, len(want)); !reflect.DeepEqual(got, want) {
				t.Fatal("inbox differs from DecodeFrame over the whole stream")
			}
		})
	}
}

// TestReaderBadMagicFailsClosed: bytes that are not a frame, after two
// valid frames, deliver exactly those two and kill the connection with
// netd.frame provenance.
func TestReaderBadMagicFailsClosed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	r := newFrameReader(t, b)
	var denies atomic.Int32
	unsub := r.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerNet && e.Site == "netd.frame" && e.Op == "decode" {
			denies.Add(1)
		}
	})
	defer unsub()

	var stream []byte
	stream = AppendFrame(stream, Frame{Version: Version, Type: FrameCtrl, Payload: []byte("one")})
	stream = AppendFrame(stream, Frame{Version: Version, Type: FrameData, Channel: 1, Payload: []byte("two")})
	want := decodeAll(t, stream)
	bad := AppendFrame(nil, Frame{Version: Version, Type: FrameCtrl, Payload: []byte("three")})
	binary.BigEndian.PutUint16(bad, 0xBAD0)
	stream = append(stream, bad...)
	go a.Write(stream) // the reader hangs up mid-stream; the error is expected

	deadline := time.Now().Add(5 * time.Second)
	for !r.c.isDead() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if !r.c.isDead() {
		t.Fatal("bad magic did not kill the connection")
	}
	if got := r.c.takeInbox(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %+v, want the two valid frames", got)
	}
	if denies.Load() != 1 {
		t.Fatalf("%d netd.frame decode denials, want 1", denies.Load())
	}
}

// pipePeer plugs a net.Pipe into n's pool under addr, as if dialed, and
// returns the counting near end and a reader on the far end.
func pipePeer(t *testing.T, n *Node, addr string) (*countingConn, *conn, *frameReader) {
	t.Helper()
	near, far := net.Pipe()
	cc := &countingConn{Conn: near}
	c := newConn(n, cc, addr, true, 2)
	if !n.register(c) {
		t.Fatal("register refused")
	}
	return cc, c, newFrameReader(t, far)
}

// TestFlushOneWritePerPump: a control frame and a drained 1 KiB chunk to
// the same peer leave in one write, in the order they were queued.
func TestFlushOneWritePerPump(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1, Batching: true})
	cc, _, r := pipePeer(t, a.node, "peer")
	fd, err := a.node.Open(a.user, "peer", difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	open := r.await(t, 1)[0]
	if open.Type != FrameOpen || cc.writes.Load() != 1 {
		t.Fatalf("Open: frame %s after %d writes, want one eager write", open.Type, cc.writes.Load())
	}
	if err := a.node.SendControl("peer", []byte("hb")); err != nil {
		t.Fatal(err)
	}
	if cc.writes.Load() != 1 {
		t.Fatal("SendControl wrote before the Pump")
	}
	msg := bytes.Repeat([]byte("k"), 1024)
	if _, err := a.k.Send(a.user, fd, msg); err != nil {
		t.Fatal(err)
	}
	a.node.Pump()
	got := r.await(t, 2)
	if n := cc.writes.Load(); n != 2 {
		t.Fatalf("Pump made %d writes, want 1", n-1)
	}
	if got[0].Type != FrameCtrl || string(got[0].Payload) != "hb" ||
		got[1].Type != FrameData || got[1].Channel != open.Channel || !bytes.Equal(got[1].Payload, msg) {
		t.Fatalf("frames out of enqueue order: %s then %s", got[0].Type, got[1].Type)
	}
}

// TestFlushUnbatchedWritePerFrame: with batching off every frame is its
// own write.
func TestFlushUnbatchedWritePerFrame(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1, DrainChunk: 1024})
	cc, _, r := pipePeer(t, a.node, "peer")
	fd, err := a.node.Open(a.user, "peer", difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.node.SendControl("peer", []byte("hb")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.k.Send(a.user, fd, make([]byte, 3*1024)); err != nil {
		t.Fatal(err)
	}
	a.node.Pump()
	got := r.await(t, 5)
	if n := cc.writes.Load(); n != 5 {
		t.Fatalf("%d writes for 5 frames", n)
	}
	for i, typ := range []FrameType{FrameOpen, FrameCtrl, FrameData, FrameData, FrameData} {
		if got[i].Type != typ {
			t.Fatalf("frame %d is %s, want %s", i, got[i].Type, typ)
		}
	}
}

// TestEnqueueMaxQueueBound: the queue bound counts encoded bytes,
// header included: a frame that fills it exactly fits, one byte more
// does not.
func TestEnqueueMaxQueueBound(t *testing.T) {
	n := NewNode(Config{MaxQueue: 100})
	c := newConn(n, nil, "", true, 2)
	over := Frame{Version: Version, Type: FrameCtrl, Payload: make([]byte, 100-HeaderSize+1)}
	if c.enqueue(over) {
		t.Fatal("a frame one byte over MaxQueue was queued")
	}
	exact := Frame{Version: Version, Type: FrameCtrl, Payload: make([]byte, 100-HeaderSize)}
	if !c.enqueue(exact) {
		t.Fatal("a frame filling MaxQueue exactly was refused")
	}
	if c.queueSpace() != 0 || c.enqueue(Frame{Version: Version, Type: FrameClose}) {
		t.Fatal("a full queue took another frame")
	}
}

// flushFaults fails the first net.flush it sees, then passes.
type flushFaults struct{ tripped atomic.Bool }

func (f *flushFaults) At(site string) faultinject.Kind {
	if site == "net.flush" && f.tripped.CompareAndSwap(false, true) {
		return faultinject.Error
	}
	return faultinject.None
}

// TestFlushFaultDropsOnlyBatch: a net.flush error drops exactly the
// queued batch and keeps the link. The dropped batch's buffer comes back
// as the spare, which the flush after next writes from: it must carry
// only the frames queued since.
func TestFlushFaultDropsOnlyBatch(t *testing.T) {
	n := NewNode(Config{NodeID: 1, Batching: true, Injector: &flushFaults{}})
	cc, c, r := pipePeer(t, n, "peer")
	for _, p := range []string{"lost-1", "lost-2"} {
		n.SendControl("peer", []byte(p))
	}
	if n.Pump() != 0 || cc.writes.Load() != 0 || c.isDead() {
		t.Fatal("the faulted flush wrote, or killed the link")
	}
	var want []Frame
	var wireLen int64
	for _, p := range []string{"kept-1", "kept-2"} {
		f := Frame{Version: Version, Type: FrameCtrl, Payload: []byte(p)}
		n.SendControl("peer", f.Payload)
		n.Pump()
		want = append(want, f)
		wireLen += int64(len(AppendFrame(nil, f)))
	}
	got := r.await(t, 2)
	if cc.writes.Load() != 2 || cc.bytes.Load() != wireLen || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the fault: %d writes of %d bytes carrying %+v; want two writes of %d bytes carrying %+v",
			cc.writes.Load(), cc.bytes.Load(), got, wireLen, want)
	}
}

// TestFlushLetsLargeBufferGo: a flushed batch buffer is kept for reuse
// only while it stays within maxSpare, so a burst of bulk traffic does
// not pin its buffers for the life of the link.
func TestFlushLetsLargeBufferGo(t *testing.T) {
	n := NewNode(Config{NodeID: 1, Batching: true})
	_, c, r := pipePeer(t, n, "peer")
	chunk := Frame{Version: Version, Type: FrameData, Channel: 1, Payload: make([]byte, defaultDrainChunk)}
	for i := 0; i < 5; i++ {
		if !c.enqueue(chunk) {
			t.Fatal("enqueue refused")
		}
	}
	c.flush()
	r.await(t, 5)
	if c.spare != nil {
		t.Fatalf("kept a %d-byte spare after a bulk batch, bound %d", cap(c.spare), maxSpare)
	}
	c.enqueue(Frame{Version: Version, Type: FrameCtrl, Payload: []byte("hb")})
	c.flush()
	r.await(t, 1)
	if c.spare == nil || cap(c.spare) > maxSpare {
		t.Fatalf("small batch left spare of cap %d, want a kept buffer within %d", cap(c.spare), maxSpare)
	}
}

// TestFlushConcurrentOpenAndPump: Open's eager flush races Pump's on
// one connection. Each goroutine's frames must still arrive in the
// order it queued them.
func TestFlushConcurrentOpenAndPump(t *testing.T) {
	a := bootNode(t, Config{NodeID: 1, Batching: true})
	_, _, r := pipePeer(t, a.node, "peer")
	const rounds = 64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := a.node.Open(a.user, "peer", difc.Labels{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.node.SendControl("peer", []byte{byte(i)})
			a.node.Pump()
		}
	}()
	wg.Wait()
	got := r.await(t, 2*rounds)
	var opens, ctrls []uint32
	for _, f := range got {
		switch f.Type {
		case FrameOpen:
			opens = append(opens, f.Channel)
		case FrameCtrl:
			ctrls = append(ctrls, uint32(f.Payload[0]))
		}
	}
	for i := range opens {
		if opens[i] != uint32(2*i+1) {
			t.Fatalf("open %d carries channel %d, want %d", i, opens[i], 2*i+1)
		}
	}
	for i := range ctrls {
		if ctrls[i] != uint32(i) {
			t.Fatalf("control frame %d carries %d", i, ctrls[i])
		}
	}
}

// TestControlReplyToNewPeerLeavesInSamePump: a control reply that the
// Control handler sends to a peer not yet dialed ships in the Pump that
// ran the handler, not at some later one.
func TestControlReplyToNewPeerLeavesInSamePump(t *testing.T) {
	var got atomic.Value
	c := bootNode(t, Config{NodeID: 3, Control: func(_ uint64, p []byte) { got.Store(string(p)) }})
	var relay *testNode
	replied := false
	relay = bootNode(t, Config{NodeID: 2, Control: func(uint64, []byte) {
		relay.node.SendControl(c.node.Addr(), []byte("pong"))
		replied = true
	}})
	a := bootNode(t, Config{NodeID: 1})
	if err := a.node.SendControl(relay.node.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	a.node.Pump()
	pumpUntil(t, func() bool { return replied }, relay)
	// relay is not pumped again: the reply must already be on the wire.
	pumpUntil(t, func() bool { return got.Load() == "pong" }, c)
}
