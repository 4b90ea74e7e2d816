package cluster

import (
	"encoding/binary"
	"fmt"

	"laminar/internal/durable"
)

// Incarnation epochs.
//
// Labels cross the wire only in full canonical form, so a peer never has
// to trust another node's process-local interned ids. What a restart
// does invalidate is the peer's identity in time: a node that crashes
// and returns is a new incarnation, and frames its previous incarnation
// left in flight must not be acted on. Every boot bumps the persisted
// epoch; a peer that observes the new epoch records it, and any frame
// still carrying the stale epoch — control or routed open — is rejected
// fail-closed with provenance.

// epochKey is the store key of this node's incarnation epoch.
const epochKey = "node/epoch"

// loadEpoch reads the persisted incarnation epoch, bumps it for this
// boot, and persists the new value through the checkpoint protocol. A
// torn epoch record quarantines to a fresh high epoch rather than risk
// reusing one (fail closed: peers must never mistake this incarnation
// for the last one).
func (c *Cluster) loadEpoch() uint64 {
	var prev uint64
	payload, state := durable.Recover(c.cfg.Store, ckptMagic, epochKey, epochKey+durable.ShadowSuffix)
	if len(payload) == 8 {
		prev = binary.BigEndian.Uint64(payload)
	} else if state == durable.Quarantined {
		prev += 1 << 20 // unknowable history: jump far past any plausible epoch
		c.count("cluster.epoch.quarantined", 1)
	}
	next := prev + 1
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], next)
	// Epoch persistence must complete before the node speaks; recovery
	// writes bypass injection, so write directly.
	c.cfg.Store.Set(epochKey, sealRecord(buf[:]))
	return next
}

// checkEpoch validates a frame's (peer, epoch) against the incarnation
// on file. A NEWER epoch is a reincarnation and is accepted (observe
// records it in the member table); a STALE epoch is rejected fail-closed
// with provenance — the sender is a ghost of a dead incarnation. locked.
func (c *Cluster) checkEpoch(peer, epoch uint64, site string) bool {
	if peer == c.cfg.ID {
		return epoch == c.epoch
	}
	m, ok := c.members[peer]
	if !ok {
		return true // first contact; observe() will record the epoch
	}
	if epoch < m.epoch {
		c.count("cluster.epoch.stale", 1)
		c.denyEvent(site, "stale-epoch",
			fmt.Errorf("node %d frame carries epoch %d, current incarnation is %d", peer, epoch, m.epoch))
		return false
	}
	return true
}

// Epoch reports this node's current incarnation epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
