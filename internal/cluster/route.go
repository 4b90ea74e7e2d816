package cluster

import (
	"fmt"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// Multi-hop routing.
//
// A routed channel reaches a labeled endpoint through intermediate
// nodes, and the Laminar guarantee is preserved at EVERY hop, not just
// the ends: each intermediate node adopts the channel labels onto its
// own inbound and outbound endpoint inodes, spawns a relay task running
// AT those labels (lsm.AdoptTaskLabels), and forwards bytes with
// ordinary checked Recv/Send syscalls. The hop's own LSM therefore
// re-runs the full flow check on every byte it relays — a compromised
// or misconfigured hop whose relay does not carry the labels is simply
// denied by its own kernel, and the flow dies there silently (the
// unreliable channel again). Routing decisions consult the failure
// detector: suspects and the dead are never chosen as next hops, so a
// failing node degrades routes to silence, never to unchecked delivery.

// relay is one forwarding binding at an intermediate hop.
type relay struct {
	task  *kernel.Task
	inFD  kernel.FD
	outFD kernel.FD
}

// ErrNoRoute reports that no alive path to the destination exists.
var ErrNoRoute = fmt.Errorf("cluster: no alive route")

// memberAddr returns the addr of an ALIVE member. locked.
func (c *Cluster) memberAddr(id uint64) (string, bool) {
	m, ok := c.members[id]
	if !ok || m.state != StateAlive {
		return "", false
	}
	return m.addr, true
}

// Open opens a labeled channel from t to the node dst, directly when dst
// is alive, otherwise through the first alive member that is not dst
// (one-hop detour). The endpoint creation runs the full labeled-create
// checks against t on this node, exactly as a local create.
func (c *Cluster) Open(t *kernel.Task, dst uint64, labels difc.Labels) (kernel.FD, error) {
	c.mu.Lock()
	if addr, ok := c.memberAddr(dst); ok {
		c.mu.Unlock()
		return c.node.Open(t, addr, labels)
	}
	// Direct peer not alive: detour through the lowest-id alive member
	// (deterministic choice), which relays with per-hop checks.
	var via uint64
	for id, m := range c.members {
		if id == dst || id == c.cfg.ID || m.state != StateAlive {
			continue
		}
		if via == 0 || id < via {
			via = id
		}
	}
	c.mu.Unlock()
	if via == 0 {
		return -1, ErrNoRoute
	}
	return c.OpenVia(t, via, dst, labels)
}

// OpenVia opens a labeled channel from t to dst routed through the
// intermediate node via. The first leg carries a routing blob naming the
// remaining path; every hop re-checks the flow with its own LSM.
func (c *Cluster) OpenVia(t *kernel.Task, via, dst uint64, labels difc.Labels) (kernel.FD, error) {
	c.mu.Lock()
	addr, ok := c.memberAddr(via)
	epoch := c.epoch
	c.mu.Unlock()
	if !ok {
		return -1, ErrNoRoute
	}
	meta := encodeRoute(routeMeta{
		Origin:      c.cfg.ID,
		OriginEpoch: epoch,
		Path:        []uint64{dst},
	})
	return c.node.OpenRouted(t, addr, labels, meta)
}

// onRouted is the netlabel Routed handler: decide whether a routed open
// terminates here, relays onward, or dies. Runs inside Pump.
func (c *Cluster) onRouted(o netlabel.RoutedOffer) netlabel.RoutedAction {
	meta, err := parseRoute(o.Meta)
	if err != nil {
		c.denyEvent("cluster.route", "meta", err)
		return netlabel.RoutedDrop
	}
	c.mu.Lock()
	if !c.checkEpoch(meta.Origin, meta.OriginEpoch, "cluster.route") {
		c.mu.Unlock()
		return netlabel.RoutedDrop
	}
	if c.draining {
		// A draining node accepts no new routed work (drain step 1).
		c.count("cluster.route.draining", 1)
		c.mu.Unlock()
		return netlabel.RoutedDrop
	}
	if len(meta.Path) == 0 || (len(meta.Path) == 1 && meta.Path[0] == c.cfg.ID) {
		c.mu.Unlock()
		return netlabel.RoutedDeliver // we are the destination
	}
	next := meta.Path[0]
	rest := meta.Path[1:]
	if next == c.cfg.ID && len(rest) > 0 {
		next, rest = rest[0], rest[1:]
	}
	addr, ok := c.memberAddr(next)
	if !ok {
		// Next hop suspect, dead or unknown: the route dies here, fail
		// closed — silence, never an unchecked shortcut.
		c.count("cluster.route.nohop", 1)
		c.mu.Unlock()
		return netlabel.RoutedDrop
	}
	c.mu.Unlock()

	// Build the relay: adopted outbound endpoint, relay task at the
	// channel's labels, both descriptors installed in the relay task.
	// The received trace context (if any) is re-attached to the onward
	// leg so the whole route shares one trace id; the transport bumps
	// the hop counter when it transmits.
	var tr *telemetry.TraceCtx
	if o.Traced {
		t := o.Trace
		tr = &t
	}
	outFile, err := c.node.OpenRoutedAdopted(addr, o.Labels, encodeRoute(routeMeta{
		Origin:      meta.Origin,
		OriginEpoch: meta.OriginEpoch,
		Path:        rest,
	}), tr)
	if err != nil {
		c.count("cluster.route.deadlink", 1)
		return netlabel.RoutedDrop
	}
	task, err := c.cfg.Kernel.Spawn(c.cfg.Kernel.InitTask(), nil)
	if err != nil {
		return netlabel.RoutedDrop
	}
	if c.cfg.Module != nil {
		c.cfg.Module.AdoptTaskLabels(task, o.Labels)
	}
	r := &relay{
		task:  task,
		inFD:  c.cfg.Kernel.InstallFile(task, o.File),
		outFD: c.cfg.Kernel.InstallFile(task, outFile),
	}
	c.mu.Lock()
	c.relays = append(c.relays, r)
	c.mu.Unlock()
	c.count("cluster.route.relayed", 1)
	return netlabel.RoutedClaim
}

// pumpRelays forwards queued bytes across every relay binding with fully
// checked syscalls: the relay task's Recv is checked against the inbound
// endpoint's labels and its Send against the outbound endpoint's labels
// by this node's own LSM — the per-hop re-check. A denial either way is
// silent loss, indistinguishable from the wire eating the frame.
func (c *Cluster) pumpRelays() int {
	c.mu.Lock()
	relays := append([]*relay(nil), c.relays...)
	c.mu.Unlock()
	work := 0
	buf := make([]byte, 16*1024)
	for _, r := range relays {
		for {
			n, err := c.cfg.Kernel.Recv(r.task, r.inFD, buf)
			if err != nil || n == 0 {
				if err != nil && err != kernel.ErrAgain {
					c.count("cluster.relay.recv-denied", 1)
				}
				break
			}
			work++
			if _, serr := c.cfg.Kernel.Send(r.task, r.outFD, buf[:n]); serr != nil {
				c.count("cluster.relay.send-denied", 1)
			}
		}
	}
	return work
}
