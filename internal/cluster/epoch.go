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

// epochFloorKey is the store key of the epoch floor: the highest epoch
// issued since the node's first quarantined epoch record. A node whose
// epoch record was never torn has no floor record.
const epochFloorKey = "node/epoch-floor"

// loadEpoch reads the persisted incarnation epoch, bumps it for this
// boot, and persists the new value. A torn epoch record is unknowable,
// so the node must not guess a small epoch a peer may already have seen
// (fail closed: peers must never mistake this incarnation for the last
// one). The first quarantine jumps far ahead and starts the floor
// record; from then on every boot max-merges the floor with the epoch
// record and writes both, so a later tear resumes just past the last
// epoch issued and the epoch never moves backwards. Only losing both
// records at once falls back to the far jump.
func (c *Cluster) loadEpoch() uint64 {
	prev, state := c.readEpoch(epochKey)
	floor, floorState := c.readEpoch(epochFloorKey)
	quarantined := state == durable.Quarantined
	if quarantined {
		c.count("cluster.epoch.quarantined", 1)
		if floor == 0 {
			floor = 1 << 20 // no history survives: jump far past any plausible epoch
		}
	}
	next := max(prev, floor) + 1
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], next)
	// Epoch persistence must complete before the node speaks; recovery
	// writes bypass injection, so write directly. The floor goes first,
	// so it is never below an epoch on file.
	if quarantined || floorState != durable.Absent {
		c.cfg.Store.Set(epochFloorKey, sealRecord(buf[:]))
	}
	c.cfg.Store.Set(epochKey, sealRecord(buf[:]))
	return next
}

// readEpoch recovers the epoch record at key: its value (0 unless it
// opens) and its recovery state.
func (c *Cluster) readEpoch(key string) (uint64, string) {
	payload, state := durable.Recover(c.cfg.Store, ckptMagic, key, key+durable.ShadowSuffix)
	if len(payload) != 8 {
		return 0, state
	}
	return binary.BigEndian.Uint64(payload), state
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
