package netlabel

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport robustness constants, following the FreeCS transport's
// discipline: bounded retries, deterministic doubling backoff, deadlines
// on every blocking wire operation, and shed-at-the-door capacity caps.
const (
	dialTimeout      = 2 * time.Second
	handshakeTimeout = 2 * time.Second
	writeTimeout     = 5 * time.Second
	backoffBase      = time.Millisecond       // doubles per failed dial attempt
	backoffMax       = 128 * time.Millisecond // deterministic backoff ceiling

	defaultDialRetries = 3
	defaultMaxConns    = 64
	defaultMaxQueue    = 256 * 1024 // outbound bytes per conn before backpressure
	defaultDrainChunk  = 16 * 1024  // max payload per Data frame

	// readBufSize is the reader's buffer: it holds one full Data frame at
	// the default DrainChunk, so only a larger frame grows it.
	readBufSize = HeaderSize + defaultDrainChunk
	// maxSpare bounds the flushed batch buffer a connection keeps for its
	// next batch. A larger one is let go, so a link that went quiet after
	// bulk traffic pins at most two such buffers.
	maxSpare = 4 * (HeaderSize + defaultDrainChunk)
)

// dialBackoff is the sleep before dial attempt n (the first retry is
// attempt 1): backoffBase doubling per attempt, saturating at backoffMax.
// The shift is bounded before it is taken, so arbitrarily large retry
// budgets (cluster mode re-dials suspects for a whole membership epoch)
// cannot overflow into a negative or absurd sleep.
func dialBackoff(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := backoffBase
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= backoffMax {
			return backoffMax
		}
	}
	if d > backoffMax {
		return backoffMax
	}
	return d
}

// conn is one TCP connection to a peer node, after a successful
// handshake. A reader goroutine decodes inbound frames into an inbox the
// node's Pump applies; outbound frames are encoded back to back into one
// buffer under mu until flush ships them (one write per flush when
// batching is on).
type conn struct {
	node   *Node
	nc     net.Conn
	addr   string // dial key; "" for accepted connections
	peerID uint64

	// wmu serializes flushes, so batches reach the wire in the order
	// their frames were queued even when Open flushes while Pump does.
	wmu   sync.Mutex
	spare []byte // the last flushed batch's buffer, reused for the next; wmu held

	mu       sync.Mutex
	out      []byte // encoded frames awaiting flush, back to back
	frames   int    // frames in out
	dead     bool
	nextChan uint32 // parity-split id space: dialer odd, acceptor even

	inMu  sync.Mutex
	inbox []Frame
}

func newConn(n *Node, nc net.Conn, addr string, dialed bool, peerID uint64) *conn {
	c := &conn{node: n, nc: nc, addr: addr, peerID: peerID}
	// The channel id space is split by direction so both ends can open
	// channels on one pooled connection without coordination.
	if dialed {
		c.nextChan = 1
	} else {
		c.nextChan = 2
	}
	return c
}

// allocChan hands out the next channel id for this side of the conn.
func (c *conn) allocChan() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextChan
	c.nextChan += 2
	return id
}

func (c *conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// finished reports a dead link whose inbox has been emptied: nothing on
// it can be applied any more.
func (c *conn) finished() bool {
	if !c.isDead() {
		return false
	}
	c.inMu.Lock()
	defer c.inMu.Unlock()
	return len(c.inbox) == 0
}

// kill tears the link down: everything queued or in flight is lost,
// which the unreliable-channel semantics already permit. Idempotent.
func (c *conn) kill() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.out = nil
	c.frames = 0
	c.mu.Unlock()
	c.nc.Close()
}

// enqueue encodes f onto the outbound queue. A full queue or a dead
// link drops the frame silently (backpressure: the caller stops draining
// channels once queueSpace hits zero, so drops here only happen for
// control frames racing a full queue).
func (c *conn) enqueue(f Frame) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || len(c.out)+HeaderSize+len(f.Payload) > c.node.cfg.MaxQueue {
		return false
	}
	c.out = appendFrame(c.out, f)
	c.frames++
	return true
}

// queueSpace reports how many outbound bytes fit before backpressure.
func (c *conn) queueSpace() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0
	}
	return c.node.cfg.MaxQueue - len(c.out)
}

// flush ships the queued frames: one write with batching on, one write
// per frame with it off. The queue's buffer swaps with the spare, so a
// steady link encodes and writes without allocating. A write error or
// an injected link fault kills the connection; the frames are gone
// either way, exactly like messages lost on the wire. It reports whether
// the link is dead, read under the lock it already takes.
func (c *conn) flush() (dead bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	batch, frames := c.out, c.frames
	dead = c.dead
	if !dead && frames > 0 {
		c.out, c.frames = c.spare[:0], 0
		c.spare = nil
	}
	c.mu.Unlock()
	if dead || frames == 0 {
		return dead
	}
	switch c.node.injectAt("net.flush") {
	case faultError:
		// The link ate the batch: frames lost, connection survives. The
		// buffer is reused from length zero, so nothing dropped here can
		// ride a later flush.
		c.node.count("net.flush.dropped", frames)
		c.keepSpare(batch)
		return false
	case faultCrash:
		c.kill()
		return true
	}
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := c.write(batch); err != nil {
		c.kill()
		return true
	}
	c.keepSpare(batch)
	c.node.count("net.tx.frames", frames)
	return false
}

// keepSpare keeps a flushed batch's buffer for the next batch unless it
// grew past maxSpare. wmu held.
func (c *conn) keepSpare(batch []byte) {
	if cap(batch) <= maxSpare {
		c.spare = batch
	}
}

// write puts one batch on the wire. Without batching it walks the frame
// headers and writes each frame on its own.
func (c *conn) write(batch []byte) error {
	if c.node.cfg.Batching {
		_, err := c.nc.Write(batch)
		return err
	}
	for len(batch) > 0 {
		n := HeaderSize + int(binary.BigEndian.Uint32(batch[8:]))
		if _, err := c.nc.Write(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// readLoop decodes inbound frames into the inbox until the link dies.
// Malformed input and version mismatches kill the connection fail-closed
// with LayerNet provenance; policy stays out of this goroutine entirely
// (Pump applies frames, so fault-injection and verdict order do not
// depend on network timing more than frame arrival itself does).
func (c *conn) readLoop() {
	defer c.node.wg.Done()
	defer c.kill()
	c.nc.SetReadDeadline(time.Time{})
	base := make([]byte, readBufSize)
	buf := base
	end := 0 // buf[:end] holds received bytes not yet decoded
	for {
		n, err := c.nc.Read(buf[end:])
		end += n
		start := 0
		for {
			f, consumed, derr := decodeFrame(buf[start:end])
			if derr == ErrShort {
				break
			}
			if derr != nil {
				c.node.deny("netd.frame", "decode", derr)
				return
			}
			start += consumed
			if f.Version != Version {
				c.node.deny("netd.frame", "version",
					fmt.Errorf("frame version %d, want %d", f.Version, Version))
				return
			}
			c.inMu.Lock()
			c.inbox = append(c.inbox, f)
			c.inMu.Unlock()
		}
		// The undecoded tail is less than one frame; move it to the front,
		// back into the base buffer once it fits there again, so a frame
		// that grew the buffer does not pin it for the link's lifetime.
		if start > 0 {
			dst := buf
			if end-start <= len(base) {
				dst = base
			}
			end = copy(dst, buf[start:end])
			buf = dst
		}
		if end == len(buf) {
			// One frame larger than the buffer. decodeFrame has checked its
			// header and bounded its length by MaxPayload.
			grown := make([]byte, HeaderSize+int(binary.BigEndian.Uint32(buf[8:])))
			copy(grown, buf)
			buf = grown
		}
		if err != nil {
			return
		}
	}
}

// takeInbox removes and returns the frames received so far.
func (c *conn) takeInbox() []Frame {
	c.inMu.Lock()
	defer c.inMu.Unlock()
	frames := c.inbox
	c.inbox = nil
	return frames
}

// readFrameSync reads exactly one frame synchronously (handshake only).
func readFrameSync(nc net.Conn, deadline time.Duration) (Frame, error) {
	nc.SetReadDeadline(time.Now().Add(deadline))
	defer nc.SetReadDeadline(time.Time{})
	var acc []byte
	tmp := make([]byte, 4096)
	for {
		f, _, err := decodeFrame(acc)
		if err == nil {
			return f, nil
		}
		if err != ErrShort {
			return Frame{}, err
		}
		n, rerr := nc.Read(tmp)
		acc = append(acc, tmp[:n]...)
		if rerr != nil {
			return Frame{}, rerr
		}
	}
}

// writeFrameSync writes one frame synchronously (handshake only).
func writeFrameSync(nc net.Conn, f Frame) error {
	nc.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetWriteDeadline(time.Time{})
	_, err := nc.Write(appendFrame(nil, f))
	return err
}
