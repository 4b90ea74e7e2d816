package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"laminar/internal/budget"
	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// The net-relay workload is the only one in netlabel and cluster: three
// cluster nodes in this process, joined over loopback TCP with batching
// on (the laminar-netd default). A few secrecy-labeled channels, opened
// in set-up, are routed 1→2→3 through node 2's checked relay, whose own
// LSM re-checks every byte. A request sends one 1 KiB message on one
// channel and then, once that channel has nrPerChannel messages in
// flight, ticks the nodes until its oldest message arrives. Sixteen
// messages in flight keep the relay busy while one wakes up for the
// network, and stay far below the 32 KiB endpoint budget: a clean run
// drops nothing. Each node's ledger tracks the channel tags, so both
// sending hops charge the budget on their drain path.
//
// The loop never sleeps: Go rounds any wait under a millisecond up to a
// millisecond. It yields after tick rounds that moved nothing instead. No
// channel opens while measuring, because relays are never reaped and
// every tick scans them all.
const (
	nrChannels   = 4
	nrPerChannel = 4
	nrMsgSize    = 1024 // the payload BENCH_cluster.json uses
	nrHeader     = 16   // channel and sequence number
	nrPayloads   = 64
	nrBudget     = 1 << 62
	// The failure detector thresholds are set through the public
	// cluster.Config fields; everything else keeps laminar-netd's
	// defaults: a heartbeat every 2 ticks and, because every node has a
	// telemetry recorder, a stats broadcast every 8 ticks that carries the
	// node's budget facts to its peers. laminar-netd paces its ticks about
	// 200 µs apart, one loopback round trip, so its detector suspects a
	// peer after 5 silent ticks, about 1 ms. This loop never sleeps and
	// ticks a node every few microseconds (cluster.ticks_per_op counts
	// them), so 5 ticks are shorter than one round trip and the default
	// would flap; 2^30 silent ticks outlast any run.
	nrSuspectAfter = 1 << 30
	nrDeadAfter    = 1 << 31
	// nrTimeout aborts the run when a message never arrives.
	nrTimeout      = 5 * time.Second
	nrSetupTimeout = 30 * time.Second
)

var netRelaySizes = map[string]int{
	"nodes": 3, "channels": nrChannels, "message_bytes": nrMsgSize, "messages_in_flight": nrChannels * nrPerChannel,
	"payloads": nrPayloads, "suspect_after_ticks": nrSuspectAfter, "dead_after_ticks": nrDeadAfter,
}

type nrNode struct {
	id   uint64
	k    *kernel.Kernel
	mod  *lsm.Module
	led  *budget.Ledger
	user *kernel.Task
	cl   *cluster.Cluster
}

type netRelayWL struct {
	nodes          [3]*nrNode            // route source, relay, destination
	send           [nrChannels]kernel.FD // on the source
	recv           [nrChannels]kernel.FD // on the destination
	seqs           [nrChannels]uint64
	inflight       [nrChannels][]nrMsg // sent, not yet received, oldest first
	payloads       [nrPayloads][]byte  // what is sent
	want           [nrPayloads][]byte  // the model: what must arrive
	msg, exp, rbuf []byte
	rng            *rand.Rand
	h              digest
	states         map[[2]uint64]cluster.MemberState
	transitions    uint64
	ticks          uint64
}

func newNetRelay(seed int64) (_ workload, err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &netRelayWL{
		rng: rng, msg: make([]byte, nrMsgSize), exp: make([]byte, nrMsgSize),
		rbuf: make([]byte, nrMsgSize), states: make(map[[2]uint64]cluster.MemberState),
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for i := range w.payloads {
		w.payloads[i] = make([]byte, nrMsgSize-nrHeader)
		rng.Read(w.payloads[i])
		w.want[i] = bytes.Clone(w.payloads[i])
	}
	var seeds []string
	for i := range w.nodes {
		n, err := bootNode(uint64(i+1), seeds)
		if err != nil {
			return nil, err
		}
		w.nodes[i] = n
		if i == 0 {
			seeds = []string{n.cl.Addr()}
		}
	}
	if err := w.settle(func() bool {
		for _, n := range w.nodes {
			if !n.cl.Joined() || !n.cl.Converged(1, 2, 3) {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("cluster never converged: %w", err)
	}

	src, relay, dst := w.nodes[0], w.nodes[1], w.nodes[2]
	var all difc.Label
	for c := range w.send {
		tag, err := src.k.AllocTag(src.user)
		if err != nil {
			return nil, err
		}
		labels := difc.Labels{S: difc.NewLabel(tag)}
		if err := src.led.SetLimit(tag, relay.id, nrBudget); err != nil {
			return nil, err
		}
		if err := relay.led.SetLimit(tag, dst.id, nrBudget); err != nil {
			return nil, err
		}
		// The receiver reads every channel, so it runs at all their tags.
		all = all.Union(labels.S)
		dst.mod.AdoptTaskLabels(dst.user, difc.Labels{S: all})
		if w.send[c], err = src.cl.OpenVia(src.user, relay.id, dst.id, labels); err != nil {
			return nil, fmt.Errorf("open channel %d: %w", c, err)
		}
		// Channels open one at a time, so the next one accepted is this one.
		if err := w.settle(func() bool {
			fd, _, aerr := dst.cl.Node().Accept(dst.user)
			w.recv[c] = fd
			return aerr == nil
		}); err != nil {
			return nil, fmt.Errorf("channel %d never reached node %d: %w", c, dst.id, err)
		}
	}
	w.pollMembers()
	return w, nil
}

func bootNode(id uint64, seeds []string) (*nrNode, error) {
	led := budget.New()
	mod := lsm.New()
	// Wired as laminar-netd wires it, but left at LevelOff.
	rec := telemetry.NewRecorder()
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithBudget(led), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		return nil, err
	}
	cl := cluster.New(cluster.Config{
		ID: id, Kernel: k, Module: mod, Recorder: rec, Seeds: seeds, Batching: true,
		SuspectAfter: nrSuspectAfter, DeadAfter: nrDeadAfter,
	})
	if err := cl.Listen("127.0.0.1:0"); err != nil {
		cl.Close()
		return nil, err
	}
	if _, err := cl.Join(); err != nil {
		cl.Close()
		return nil, err
	}
	return &nrNode{id: id, k: k, mod: mod, led: led, user: user, cl: cl}, nil
}

// settle ticks every node until cond holds. Set-up only.
func (w *netRelayWL) settle(cond func() bool) error {
	deadline := time.Now().Add(nrSetupTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", nrSetupTimeout)
		}
		w.tickAll(untraced)
		yield()
	}
	return nil
}

// tickAll ticks the source, relay and destination once each, returning
// the work all three moved and the destination's part of it.
func (w *netRelayWL) tickAll(tr *tracer) (moved, dst int) {
	for i, n := range w.nodes {
		s := tr.begin()
		m := n.cl.Tick()
		tr.end(spTickSrc+spanKind(i), s)
		tr.tick(m)
		w.ticks++
		moved += m
		dst = m
	}
	return moved, dst
}

// frame lays out one message: channel, sequence number, payload.
func frame(buf []byte, c int, seq uint64, payload []byte) {
	binary.BigEndian.PutUint64(buf[0:8], uint64(c))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	copy(buf[nrHeader:], payload)
}

// nrMsg is one message in flight.
type nrMsg struct {
	seq     uint64
	payload int
}

func (w *netRelayWL) step(tr *tracer) (bool, error) {
	c, pl := w.rng.Intn(nrChannels), w.rng.Intn(nrPayloads)
	seq := w.seqs[c]
	w.seqs[c]++
	w.h.add(uint64(c), uint64(pl), seq)
	frame(w.msg, c, seq, w.payloads[pl])
	src := w.nodes[0]
	s := tr.begin()
	n, err := src.k.Send(src.user, w.send[c], w.msg)
	tr.end(spSend, s)
	if err != nil || n != nrMsgSize {
		return false, nil
	}
	w.inflight[c] = append(w.inflight[c], nrMsg{seq, pl})
	if len(w.inflight[c]) <= nrPerChannel {
		return true, nil // the pipeline is still filling
	}
	ok, err := w.receive(tr, c)
	if tr.on {
		w.pollMembers()
	}
	return ok, err
}

// receive ticks the nodes until the oldest message in flight on channel c
// has arrived, and checks it against the model.
func (w *netRelayWL) receive(tr *tracer, c int) (bool, error) {
	m := w.inflight[c][0]
	w.inflight[c] = w.inflight[c][1:]
	frame(w.exp, c, m.seq, w.want[m.payload])
	dst := w.nodes[2]
	deadline := time.Now().Add(nrTimeout)
	got, ready := 0, true // the message may have arrived during earlier requests
	for rounds := 1; got < nrMsgSize; rounds++ {
		if ready {
			s := tr.begin()
			n, err := dst.k.Recv(dst.user, w.recv[c], w.rbuf[got:])
			tr.end(spRecv, s)
			if err == nil {
				got += n
				continue
			}
			if !errors.Is(err, kernel.ErrAgain) {
				return false, nil
			}
		}
		r := tr.begin()
		moved, dstMoved := w.tickAll(tr)
		ready = dstMoved > 0
		if moved == 0 {
			yield()
			tr.wait(r)
		}
		if rounds%256 == 0 && time.Now().After(deadline) {
			return false, fmt.Errorf("message %d on channel %d not delivered within %v", m.seq, c, nrTimeout)
		}
	}
	return bytes.Equal(w.rbuf, w.exp), nil
}

// yield lets the transport's reader goroutines run. Gosched hands the P
// to a runnable goroutine; sched_yield hands the CPU to a reader thread
// the OS woke on the same CPU, which otherwise waits behind this busy
// loop for a scheduler slice, a millisecond or more, whenever the host
// takes the other CPU away.
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// pollMembers counts the failure-detector transitions seen so far.
func (w *netRelayWL) pollMembers() {
	for _, n := range w.nodes {
		for _, m := range n.cl.Members() {
			key := [2]uint64{n.id, m.ID}
			if prev, seen := w.states[key]; seen && prev != m.State {
				w.transitions++
			}
			w.states[key] = m.State
		}
	}
}

func (w *netRelayWL) read(c *counters) {
	w.pollMembers()
	for _, n := range w.nodes {
		c[cHooks] += n.k.HookCalls()
		c[cBudgetUnits] += spent(n.led)
	}
	c[cTransitions] = w.transitions
	c[cTicks] = w.ticks
}

// corrupt flips a byte in the model of every payload.
func (w *netRelayWL) corrupt() {
	for _, p := range w.want {
		p[0] ^= 0xff
	}
}

// verify receives every message still in flight and checks that nothing
// beyond the model's messages arrived.
func (w *netRelayWL) verify() error {
	for c := range w.inflight {
		for len(w.inflight[c]) > 0 {
			seq := w.inflight[c][0].seq
			if ok, err := w.receive(untraced, c); err != nil || !ok {
				return fmt.Errorf("message %d on channel %d: delivered %v, error %v", seq, c, ok, err)
			}
		}
	}
	w.tickAll(untraced)
	dst := w.nodes[2]
	for c, fd := range w.recv {
		if n, err := dst.k.Recv(dst.user, fd, w.rbuf); err == nil {
			return fmt.Errorf("channel %d delivered %d bytes the model never sent", c, n)
		}
	}
	return nil
}

func (w *netRelayWL) trail() uint64 { return uint64(w.h) }

func (w *netRelayWL) close() {
	for _, n := range w.nodes {
		if n != nil {
			n.cl.Close()
		}
	}
}
