package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"laminar/internal/faultinject"
	"laminar/internal/kernel"
)

// Crash-consistent change checkpoints.
//
// A cluster operation (join, drain) is durable state in exactly the
// sense inode labels are (lsm/persist.go): if a node dies mid-join and
// forgets how far it got, it either rejoins half-configured — routing
// through a node the rest of the cluster never admitted — or stays
// wedged forever. Both are label-plane failures, so change records
// go through the same shadow-write + flip protocol the PR 1 store uses
// for labels:
//
//	1. write the full checksummed record to <key>#shadow
//	2. write the same record to <key> (the flip)
//	3. delete <key>#shadow
//
// A crash at any step leaves a state Resume can classify: a valid commit
// wins; a torn or missing commit rolls forward from a valid shadow; a
// torn shadow with no valid commit means the change's progress is
// unknowable, and the change is QUARANTINED — the node abandons it and
// stays OUT of the cluster until a fresh change is submitted. Recovery
// never guesses toward "joined" (fail closed).

// Store is the durable keyspace a node's change records live in. It is
// handed to the node at boot and survives restarts; the production shape
// is a file, the test shape a map the harness keeps across kills.
type Store interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
	Delete(key string)
	Keys() []string
}

// MemStore is the in-memory Store used by tests and the smoke harness:
// it survives a simulated node crash because the harness owns it.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore builds an empty store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Get returns the value stored under key.
func (s *MemStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

// Set stores val under key (the value is copied).
func (s *MemStore) Set(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
}

// Delete removes key.
func (s *MemStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// Keys lists the stored keys, sorted for deterministic recovery order.
func (s *MemStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ckptMagic heads every checkpoint record.
var ckptMagic = [4]byte{'L', 'M', 'C', '1'}

const shadowSuffix = "#shadow"

// sealRecord wraps a payload as magic | payload | crc32.
func sealRecord(payload []byte) []byte {
	buf := make([]byte, 0, len(ckptMagic)+len(payload)+4)
	buf = append(buf, ckptMagic[:]...)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// openRecord validates a sealed record and returns its payload; any
// truncation, magic or checksum failure means the record is torn.
func openRecord(rec []byte) ([]byte, error) {
	if len(rec) < len(ckptMagic)+4 {
		return nil, fmt.Errorf("checkpoint record truncated (%d bytes)", len(rec))
	}
	if [4]byte(rec[:4]) != ckptMagic {
		return nil, fmt.Errorf("checkpoint record bad magic %q", rec[:4])
	}
	body, sum := rec[:len(rec)-4], rec[len(rec)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, fmt.Errorf("checkpoint record checksum mismatch")
	}
	return body[4:], nil
}

// ckptFault consults the injector at a checkpoint step. Both Error (the
// medium failed) and Crash (the node died mid-write) leave a torn record
// behind; the difference — whether the process survives to see the error
// — is the harness's to play out.
func (c *Cluster) ckptFault(site string) error {
	if c.cfg.Injector == nil {
		return nil
	}
	switch c.cfg.Injector.At(site) {
	case faultinject.Error:
		return fmt.Errorf("%w: injected fault at %s", kernel.ErrIO, site)
	case faultinject.Crash:
		return kernel.ErrKilled
	default:
		return nil
	}
}

// checkpoint runs the shadow-write + flip protocol for key. Under an
// injected fault the step in progress tears — half the record lands —
// and the error propagates; the engine retries the checkpoint on the
// next settle, and every reachable intermediate state is one Resume
// classifies.
func (c *Cluster) checkpoint(key string, payload []byte) error {
	rec := sealRecord(payload)
	if err := c.ckptFault("cluster.ckpt.shadow"); err != nil {
		c.cfg.Store.Set(key+shadowSuffix, rec[:len(rec)/2])
		return err
	}
	c.cfg.Store.Set(key+shadowSuffix, rec)
	if err := c.ckptFault("cluster.ckpt.commit"); err != nil {
		c.cfg.Store.Set(key, rec[:len(rec)/2])
		return err
	}
	c.cfg.Store.Set(key, rec)
	if err := c.ckptFault("cluster.ckpt.clear"); err != nil {
		return err // shadow left behind; commit is valid, recovery clears it
	}
	c.cfg.Store.Delete(key + shadowSuffix)
	return nil
}

// recoverRecord classifies the persistent state of key and returns the
// payload to trust, repairing the records in place. Recovery writes
// bypass fault injection: this is the quiesced fsck pass.
//
// States: "clean" (valid commit), "rolled-forward" (commit rebuilt from
// a valid shadow), "quarantined" (nothing trustworthy — both records
// removed, ok=false), "absent".
func (c *Cluster) recoverRecord(key string) (payload []byte, state string, ok bool) {
	commit, hasCommit := c.cfg.Store.Get(key)
	shadow, hasShadow := c.cfg.Store.Get(key + shadowSuffix)
	if hasCommit {
		if p, err := openRecord(commit); err == nil {
			c.cfg.Store.Delete(key + shadowSuffix)
			return p, "clean", true
		}
	}
	if hasShadow {
		if p, err := openRecord(shadow); err == nil {
			c.cfg.Store.Set(key, shadow)
			c.cfg.Store.Delete(key + shadowSuffix)
			return p, "rolled-forward", true
		}
	}
	if hasCommit || hasShadow {
		// Some record existed but nothing decodes: the change's progress
		// is unknowable. Fail closed — drop the records and report
		// quarantine; the caller abandons the change rather than guess.
		c.cfg.Store.Delete(key)
		c.cfg.Store.Delete(key + shadowSuffix)
		return nil, "quarantined", false
	}
	return nil, "absent", false
}
