package netlabel

import (
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
// node's Pump applies; outbound frames queue under mu until Flush ships
// them (coalesced into one write when batching is on).
type conn struct {
	node   *Node
	nc     net.Conn
	addr   string // dial key; "" for accepted connections
	dialed bool
	peerID uint64

	mu       sync.Mutex
	out      [][]byte // encoded frames awaiting flush
	outBytes int
	dead     bool
	nextChan uint32 // parity-split id space: dialer odd, acceptor even

	inMu  sync.Mutex
	inbox []Frame
}

func newConn(n *Node, nc net.Conn, addr string, dialed bool, peerID uint64) *conn {
	c := &conn{node: n, nc: nc, addr: addr, dialed: dialed, peerID: peerID}
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
	c.outBytes = 0
	c.mu.Unlock()
	c.nc.Close()
}

// enqueue appends an encoded frame to the outbound queue. A full queue
// or a dead link drops the frame silently (backpressure: the caller
// stops draining channels once queueSpace hits zero, so drops here only
// happen for control frames racing a full queue).
func (c *conn) enqueue(frame []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || c.outBytes+len(frame) > c.node.cfg.MaxQueue {
		return false
	}
	c.out = append(c.out, frame)
	c.outBytes += len(frame)
	return true
}

// queueSpace reports how many outbound bytes fit before backpressure.
func (c *conn) queueSpace() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0
	}
	return c.node.cfg.MaxQueue - c.outBytes
}

// flush ships the queued frames: one coalesced write with batching on,
// one write per frame with it off. A write error or an injected link
// fault kills the connection; the frames are gone either way, exactly
// like messages lost on the wire.
func (c *conn) flush() int {
	c.mu.Lock()
	frames := c.out
	c.out = nil
	c.outBytes = 0
	dead := c.dead
	c.mu.Unlock()
	if dead || len(frames) == 0 {
		return 0
	}
	switch c.node.injectAt("net.flush") {
	case faultError:
		// The link ate the batch: frames lost, connection survives.
		c.node.count("net.flush.dropped", len(frames))
		return 0
	case faultCrash:
		c.kill()
		return 0
	}
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if c.node.cfg.Batching {
		var buf []byte
		for _, f := range frames {
			buf = append(buf, f...)
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.kill()
			return 0
		}
	} else {
		for _, f := range frames {
			if _, err := c.nc.Write(f); err != nil {
				c.kill()
				return 0
			}
		}
	}
	c.node.count("net.tx.frames", len(frames))
	return len(frames)
}

// readLoop decodes inbound frames into the inbox until the link dies.
// Malformed input and version mismatches kill the connection fail-closed
// with LayerNet provenance; policy stays out of this goroutine entirely
// (Pump applies frames, so fault-injection and verdict order do not
// depend on network timing more than frame arrival itself does).
func (c *conn) readLoop() {
	defer c.node.wg.Done()
	defer c.kill()
	var acc []byte
	tmp := make([]byte, 32*1024)
	for {
		c.nc.SetReadDeadline(time.Time{})
		n, err := c.nc.Read(tmp)
		if n > 0 {
			acc = append(acc, tmp[:n]...)
			for {
				f, consumed, derr := DecodeFrame(acc)
				if derr == ErrShort {
					break
				}
				if derr != nil {
					c.node.deny("netd.frame", "decode", derr)
					return
				}
				acc = acc[consumed:]
				if f.Version != Version {
					c.node.deny("netd.frame", "version",
						fmt.Errorf("frame version %d, want %d", f.Version, Version))
					return
				}
				c.inMu.Lock()
				c.inbox = append(c.inbox, f)
				c.inMu.Unlock()
			}
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
		f, _, err := DecodeFrame(acc)
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
	_, err := nc.Write(AppendFrame(nil, f))
	return err
}
