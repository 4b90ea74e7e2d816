package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"laminar/internal/budget"
	"laminar/internal/telemetry"
)

// Cluster metrics aggregation (DESIGN.md §16). On a period, every joined
// node broadcasts its MetricsSnapshot to the alive membership as a
// msgStats control message; each receiver caches the latest snapshot per
// peer, stamped with the sender's incarnation epoch and the receiver's
// tick. ClusterSnapshot folds the cache plus the live local snapshot into
// one cluster-wide view, marking slices from suspect/dead peers or
// superseded epochs as stale rather than dropping them — their counts
// happened; they just stopped moving.
//
// Staleness is marked, not kept forever: a peer that goes dead (detector
// or orderly leave) keeps its cached slices — stale-labeled — for one
// more merge cycle (statsEvery ticks), then the sweep evicts them. A
// long-running cluster that churns members no longer grows its caches
// without bound (ISSUE 10); the postmortem window where "dead" and
// "epoch N < M" reasons are visible is preserved.
//
// The same frame optionally carries the sender's budget fact set;
// receivers fold it into their own ledger with the semilattice merge
// (spent=max, limit=min, higher epoch wins), which makes the cluster-wide
// spend monotone and order-independent. The ledger is the only copy: the
// raw per-peer fact sets are not kept.

// peerStats is the latest snapshot heard from one peer.
type peerStats struct {
	epoch    uint64 // sender's incarnation epoch at send time
	tick     uint64 // receiver's tick when heard
	deadTick uint64 // tick the sweep first saw the peer dead; 0 = live
	blob     []byte // the JSON snap was decoded from, owned (parseCtrl copies it)
	snap     telemetry.MetricsSnapshot
}

// ledger returns the local kernel's budget ledger, nil when the node
// runs unbudgeted (or, in codec-only tests, kernel-less).
func (c *Cluster) ledger() *budget.Ledger {
	if c.cfg.Kernel == nil {
		return nil
	}
	return c.cfg.Kernel.Budget()
}

// onStats caches a peer's snapshot broadcast and merges any attached
// budget facts into the local ledger. locked.
func (c *Cluster) onStats(m ctrlMsg) {
	ps, cached := c.stats[m.From]
	if !cached || !bytes.Equal(ps.blob, m.Blob) {
		// A blob identical to the cached one keeps the decoded snapshot:
		// ClusterSnapshot and MergeSnapshots only read it. Only a sender
		// whose recorder is off repeats itself, since every counter in
		// the snapshot advances only while telemetry is on; otherwise
		// this costs one failed compare, and blob is the copy parseCtrl
		// already made.
		var snap telemetry.MetricsSnapshot
		if err := json.Unmarshal(m.Blob, &snap); err != nil {
			c.denyEvent("cluster.stats", "decode", err)
			return
		}
		ps = peerStats{blob: m.Blob, snap: snap}
	}
	if c.stats == nil {
		c.stats = make(map[uint64]peerStats)
	}
	c.stats[m.From] = peerStats{epoch: m.Epoch, tick: c.now, blob: ps.blob, snap: ps.snap}
	c.count("cluster.stats.heard", 1)
	if len(m.Budget) == 0 {
		return
	}
	facts, err := budget.DecodeFacts(m.Budget)
	if err != nil {
		// The stats slice stood on its own; the fact blob did not. Drop
		// only the facts, with provenance — a half-parsed fact set must
		// never half-merge.
		c.denyEvent("cluster.budget", "decode", err)
		return
	}
	if led := c.ledger(); led != nil {
		if n := led.MergeFacts(facts); n > 0 {
			c.count("cluster.budget.merged", n)
		}
	}
}

// broadcastStats sends the local metrics snapshot — and the local budget
// fact set, when a ledger is installed — to every alive member.
// locked on entry; unlocks around the sends (the heartbeat idiom).
func (c *Cluster) broadcastStats() {
	if c.rec == nil {
		return
	}
	blob, err := json.Marshal(c.rec.MetricsSnapshot())
	if err != nil {
		return
	}
	var factsBlob []byte
	if led := c.ledger(); led != nil {
		if b := led.ExportFacts(); len(b) <= budget.MaxFactsBlob {
			factsBlob = b
		}
	}
	msg := encodeCtrl(ctrlMsg{Type: msgStats, From: c.cfg.ID, Epoch: c.epoch,
		Addr: c.node.Addr(), Blob: blob, Budget: factsBlob})
	targets := make([]string, 0, len(c.members))
	for _, m := range c.members {
		if m.state == StateAlive {
			targets = append(targets, m.addr)
		}
	}
	sort.Strings(targets)
	c.mu.Unlock()
	for _, addr := range targets {
		c.node.SendControl(addr, msg)
	}
	c.mu.Lock()
}

// sweepStats ages the stats cache: a peer the membership calls dead (or
// has forgotten) keeps its slice for one merge cycle — so a postmortem
// ClusterSnapshot still shows the labeled last numbers — and is then
// evicted. A peer that comes back (restart under a bumped epoch)
// un-marks before the cycle elapses. locked.
func (c *Cluster) sweepStats() {
	for id, ps := range c.stats {
		m, known := c.members[id]
		switch {
		case known && m.state != StateDead:
			if ps.deadTick != 0 {
				ps.deadTick = 0
				c.stats[id] = ps
			}
		case ps.deadTick == 0:
			ps.deadTick = c.now
			c.stats[id] = ps
		case c.now-ps.deadTick >= statsEvery:
			delete(c.stats, id)
			c.count("cluster.stats.evicted", 1)
		}
	}
}

// ClusterSnapshot merges the live local snapshot with every cached peer
// snapshot into the cluster-wide view. A peer's slice is stale when the
// failure detector no longer calls it alive, or when the cached snapshot
// came from an epoch the membership has since superseded.
func (c *Cluster) ClusterSnapshot() telemetry.ClusterSnapshot {
	var nodes []telemetry.NodeSnapshot
	c.mu.Lock()
	if c.rec != nil {
		// Snapshot under the lock so the local slice and the peer cache
		// come from the same instant of this node's view.
		nodes = append(nodes, telemetry.NodeSnapshot{
			Node: c.cfg.ID, Epoch: c.epoch, Tick: c.now,
			Snapshot: c.rec.MetricsSnapshot(),
		})
	}
	for id, ps := range c.stats {
		ns := telemetry.NodeSnapshot{Node: id, Epoch: ps.epoch, Tick: ps.tick, Snapshot: ps.snap}
		m, known := c.members[id]
		switch {
		case !known:
			ns.Stale, ns.StaleWhy = true, "unknown member"
		case m.state != StateAlive:
			ns.Stale, ns.StaleWhy = true, m.state.String()
		case m.epoch > ps.epoch:
			ns.Stale, ns.StaleWhy = true, fmt.Sprintf("epoch %d < %d", ps.epoch, m.epoch)
		}
		nodes = append(nodes, ns)
	}
	c.mu.Unlock()
	return telemetry.MergeSnapshots(nodes)
}
