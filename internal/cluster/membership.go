package cluster

import (
	"fmt"
	"sort"

	"laminar/internal/telemetry"
)

// Membership and failure detection.
//
// Each node tracks every peer it has heard of as alive → suspect → dead,
// driven by heartbeat silence measured in logical ticks (the cluster has
// no wall clock: tests and the chaos oracle own time). The detector is
// deliberately fail-closed in the DIFC sense: a suspect or dead peer is
// never routed through and its stale-epoch traffic is rejected, so a
// failing node can lose messages — which the unreliable-channel
// semantics already permit — but can never cause an unchecked flow, and
// the failure signal itself (a missing heartbeat) carries no labeled
// payload, so it opens no new channel the paper's model lacks.
//
// Incarnation epochs: every boot of a node increments its persisted
// epoch. A peer that hears a higher epoch for a known id is seeing a
// reincarnation — it resets the member to alive, records the new epoch,
// and rejects any frame still carrying the stale one (epoch.go).

// MemberState is a peer's failure-detection state.
type MemberState uint8

// Failure-detection states.
const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

// String names the state.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// member is one tracked peer.
type member struct {
	id        uint64
	addr      string
	epoch     uint64
	state     MemberState
	owed      bool   // its last ping did not list us alive: our next heartbeat pings it
	lastHeard uint64 // tick of the last direct message
}

// MemberInfo is the exported view of one membership entry.
type MemberInfo struct {
	ID    uint64
	State MemberState
}

// Members lists the membership table (self included), sorted by id.
func (c *Cluster) Members() []MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := []MemberInfo{{ID: c.cfg.ID, State: StateAlive}}
	for _, m := range c.members {
		out = append(out, MemberInfo{ID: m.id, State: m.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Converged reports whether every listed id is currently alive (self
// counts). The smoke harness and oracle poll this.
func (c *Cluster) Converged(ids ...uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if id == c.cfg.ID {
			continue
		}
		m, ok := c.members[id]
		if !ok || m.state != StateAlive {
			return false
		}
	}
	return true
}

// observe records a direct message from a peer: the member becomes (or
// stays) alive and its silence clock resets. A higher epoch than the one
// on file is a reincarnation: it replaces the recorded epoch, with
// provenance. locked.
func (c *Cluster) observe(id uint64, epoch uint64, addr string) *member {
	if id == c.cfg.ID {
		return nil
	}
	m, ok := c.members[id]
	if !ok {
		m = &member{id: id, addr: addr, epoch: epoch, state: StateAlive, lastHeard: c.now}
		c.members[id] = m
		c.memberEvent(id, epoch, "alive", "joined membership")
		return m
	}
	if addr != "" {
		m.addr = addr
	}
	if epoch > m.epoch {
		m.epoch = epoch
		c.memberEvent(id, epoch, "re-epoch", "reincarnated with a fresh epoch")
	}
	m.lastHeard = c.now
	if m.state != StateAlive {
		prev := m.state
		m.state = StateAlive
		c.memberEvent(id, epoch, "alive", "recovered from "+prev.String())
	}
	return m
}

// gossip merges a peer's view of the membership into ours: unknown nodes
// are added as suspects (we have not heard them DIRECTLY, and a gossiped
// entry must never make a node routable that we cannot reach), known
// nodes take the higher epoch. A member we hold dead that the peer
// reports alive — it heard that incarnation directly within its
// SuspectAfter window — goes back to suspect with a fresh silence clock.
// Heartbeats skip the dead, so without this two nodes that declared each
// other dead at once (a stalled tick loop) would never speak again while
// both still talk to everyone else. Suspect is not routable, so hearsay
// still makes nothing reachable; our own ping either draws the member's
// heartbeats back (alive) or the detector declares it dead again after
// DeadAfter ticks. Direct observation always wins over gossip. locked.
func (c *Cluster) gossip(entries []memberWire) {
	for _, e := range entries {
		if e.ID == c.cfg.ID || e.Addr == "" {
			continue
		}
		m, ok := c.members[e.ID]
		if !ok {
			c.members[e.ID] = &member{id: e.ID, addr: e.Addr, epoch: e.Epoch,
				state: StateSuspect, lastHeard: c.now}
			c.memberEvent(e.ID, e.Epoch, "suspect", "known only by gossip")
			continue
		}
		if e.Epoch > m.epoch {
			m.epoch = e.Epoch
			c.memberEvent(e.ID, e.Epoch, "re-epoch", "gossiped fresh epoch")
		}
		if m.state == StateDead && e.State == StateAlive && e.Epoch == m.epoch {
			m.state = StateSuspect
			m.lastHeard = c.now
			c.memberEvent(e.ID, e.Epoch, "suspect", "gossiped alive by a peer")
		}
	}
}

// detect advances the failure detector one tick: members silent past
// SuspectAfter become suspect, past DeadAfter dead. locked.
func (c *Cluster) detect() {
	for _, m := range c.members {
		silent := c.now - m.lastHeard
		switch {
		case m.state == StateAlive && silent >= uint64(c.cfg.SuspectAfter):
			m.state = StateSuspect
			c.memberEvent(m.id, m.epoch, "suspect",
				fmt.Sprintf("silent for %d ticks", silent))
		case m.state == StateSuspect && silent >= uint64(c.cfg.DeadAfter):
			m.state = StateDead
			c.memberEvent(m.id, m.epoch, "dead",
				fmt.Sprintf("silent for %d ticks", silent))
		}
	}
}

// answerSuspicion marks sender owed a ping when the membership its ping
// carried does not list us alive. Its detector suspects us, or knows us
// only by gossip, and only a message from us clears that; the stretched
// alive period would otherwise leave it suspecting us for up to
// alivePingEvery ticks. locked.
func (c *Cluster) answerSuspicion(sender *member, gossiped []memberWire) {
	if sender == nil {
		return
	}
	for _, e := range gossiped {
		if e.ID == c.cfg.ID {
			sender.owed = e.State != StateAlive
			return
		}
	}
	sender.owed = true
}

// heartbeatTargets picks the members this heartbeat pings, sorted by
// address: every suspect, and the alive members on alive-ping ticks or
// when owed a ping. At the default thresholds every heartbeat is an
// alive-ping tick, so every member not yet declared dead is pinged.
// locked.
func (c *Cluster) heartbeatTargets() []string {
	aliveTick := c.now%c.alivePingEvery == 0
	targets := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.state == StateSuspect || (m.state == StateAlive && (aliveTick || m.owed)) {
			targets = append(targets, m.addr)
			m.owed = false
		}
	}
	sort.Strings(targets)
	return targets
}

// heartbeat sends a ping (with full membership gossip) to the members
// heartbeatTargets picks. Send failures are silence — the peer's
// detector handles them. locked on entry; unlocks around the sends.
func (c *Cluster) heartbeat() {
	targets := c.heartbeatTargets()
	if len(targets) == 0 {
		return
	}
	msg := encodeCtrl(ctrlMsg{Type: msgPing, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr(), Members: c.memberWireLocked()})
	c.mu.Unlock()
	for _, addr := range targets {
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
}

// memberWireLocked renders the membership (self included) for gossip.
func (c *Cluster) memberWireLocked() []memberWire {
	out := []memberWire{{ID: c.cfg.ID, Epoch: c.epoch, State: StateAlive, Addr: c.node.Addr()}}
	ids := make([]uint64, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := c.members[id]
		out = append(out, memberWire{ID: m.id, Epoch: m.epoch, State: m.state, Addr: m.addr})
	}
	return out
}

// memberEvent records a membership transition with provenance. locked.
func (c *Cluster) memberEvent(id, epoch uint64, to, why string) {
	if c.rec == nil || !c.rec.Active() {
		return
	}
	c.rec.M.Extra.Get("cluster.member."+to).Add(0, 1)
	c.rec.Emit(telemetry.Event{
		Layer:  telemetry.LayerCluster,
		Kind:   telemetry.KindLifecycle,
		Site:   "cluster.member",
		Op:     to,
		Detail: fmt.Sprintf("node %d epoch %d: %s", id, epoch, why),
	})
}
