package cluster

import (
	"laminar/internal/durable"
	"laminar/internal/kernel"
)

// Crash-consistent change checkpoints.
//
// A cluster operation (join, drain) is durable state in exactly the
// sense inode labels are: if a node dies mid-join and forgets how far it
// got, it either rejoins half-configured — routing through a node the
// rest of the cluster never admitted — or stays wedged forever. Both are
// label-plane failures, so change and epoch records go through the same
// shadow-write + flip protocol as labels (internal/durable), in the
// node's Config.Store under <key> and <key>#shadow. The node's policy on
// top: a QUARANTINED change record (torn beyond recovery) is abandoned
// and the node stays OUT of the cluster until a fresh change is
// submitted, and a quarantined epoch jumps far ahead (loadEpoch).
// Recovery never guesses toward "joined" (fail closed).

// ckptMagic heads every checkpoint record.
var ckptMagic = [4]byte{'L', 'M', 'C', '1'}

// ckptSites are the fault sites of a checkpoint.
var ckptSites = durable.Sites{Shadow: "cluster.ckpt.shadow", Commit: "cluster.ckpt.commit", Clear: "cluster.ckpt.clear"}

// sealRecord wraps a payload as magic | payload | crc32.
func sealRecord(payload []byte) []byte {
	return durable.Seal(append(durable.Begin(ckptMagic, len(payload)), payload...))
}

// checkpoint commits payload under key. Under an injected fault (Error:
// the medium failed; Crash: the node died mid-write — the difference is
// the harness's to play out) the step in progress tears and the error
// propagates; the engine retries the checkpoint on the next settle.
func (c *Cluster) checkpoint(key string, payload []byte) error {
	return durable.Write(c.cfg.Store, key, key+durable.ShadowSuffix, sealRecord(payload), ckptSites,
		func(site string) error { return kernel.PersistFault(c.cfg.Injector, site) })
}
