// Package durable is the one crash-consistent record store. Labels,
// cluster change and epoch checkpoints and flow-budget facts are durable
// state in the same sense: if a record is lost or half-written while the
// data it guards survives, a secret becomes readable, a node rejoins
// half-configured or spent budget comes back. The paper relies on ext3
// journaling for label xattrs; this package replaces it with one
// shadow-write + flip protocol over any keyspace that can Get, Set and
// Delete (DESIGN.md §8):
//
//  1. write the full sealed record to the shadow key
//  2. write the same record to the commit key (the flip)
//  3. delete the shadow key
//
// A crash at any step leaves a state Recover classifies: a valid commit
// wins; a torn or missing commit rolls forward from a valid shadow; a
// torn shadow with no valid commit is unknowable and is quarantined.
// What a quarantine means — a maximally restricted label, an abandoned
// change, a zero budget — is each caller's fail-closed policy; this
// package only guarantees that recovery never guesses.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
)

// Store is a durable keyspace. It is handed to its owner at boot and
// survives restarts; the production shape is a file or an inode's xattrs,
// the test shape a map the harness keeps across kills.
type Store interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
	Delete(key string)
	Keys() []string
}

// MemStore is the in-memory Store used by tests and harnesses: it
// survives a simulated crash because the harness owns it.
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

// Begin starts a record of the envelope magic | payload | crc32 for an
// n-byte payload: it returns magic in a buffer with room for the rest.
// The caller appends the payload and seals the buffer, so a record costs
// one allocation.
func Begin(magic [4]byte, n int) []byte {
	return append(make([]byte, 0, len(magic)+n+4), magic[:]...)
}

// Seal appends the big-endian CRC32 (IEEE) of rec to rec.
func Seal(rec []byte) []byte {
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}

// Open validates a sealed record and returns its payload; any
// truncation, magic mismatch or checksum failure means the record is
// torn.
func Open(magic [4]byte, rec []byte) ([]byte, error) {
	if len(rec) < len(magic)+4 {
		return nil, fmt.Errorf("record truncated (%d bytes)", len(rec))
	}
	if [4]byte(rec[:4]) != magic {
		return nil, fmt.Errorf("record bad magic %q", rec[:4])
	}
	body, sum := rec[:len(rec)-4], rec[len(rec)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, fmt.Errorf("record checksum mismatch")
	}
	return body[4:], nil
}

// ShadowSuffix names a record's shadow in keyspaces where the caller
// does not choose its own shadow key.
const ShadowSuffix = "#shadow"

// Sites names the fault-injection sites Write consults before its
// shadow, commit and clear steps, in that order.
type Sites struct{ Shadow, Commit, Clear string }

// Write runs the shadow-write + flip protocol for the sealed record rec.
// Before each step it calls fault with that step's site; a non-nil error
// tears the step in progress — half the record lands, or the shadow is
// left behind at the clear step — and is returned. Every reachable
// intermediate state is one Recover classifies.
func Write(s Store, key, shadow string, rec []byte, sites Sites, fault func(site string) error) error {
	if err := fault(sites.Shadow); err != nil {
		s.Set(shadow, rec[:len(rec)/2]) // torn shadow
		return err
	}
	s.Set(shadow, rec)
	if err := fault(sites.Commit); err != nil {
		s.Set(key, rec[:len(rec)/2]) // torn commit, shadow intact
		return err
	}
	s.Set(key, rec)
	if err := fault(sites.Clear); err != nil {
		return err // shadow left behind; the commit is valid
	}
	s.Delete(shadow)
	return nil
}

// Recovery states, as Recover reports them (and as the recovery
// counters name them).
const (
	Clean         = "clean"          // valid commit; any shadow dropped
	RolledForward = "rolled-forward" // commit rebuilt from a valid shadow
	Quarantined   = "quarantined"    // records existed, none opened; both removed
	Absent        = "absent"         // no record at all
)

// Recover classifies the commit and shadow records at key and shadow,
// repairs them in place and returns the payload to trust, which is
// non-nil exactly when the state is Clean or RolledForward. Commit wins:
// a valid commit is authoritative even beside a valid shadow. Recovery
// writes bypass fault injection: this is the quiesced fsck pass that
// must complete.
func Recover(s Store, magic [4]byte, key, shadow string) (payload []byte, state string) {
	commit, hasCommit := s.Get(key)
	shadowRec, hasShadow := s.Get(shadow)
	if hasCommit {
		if p, err := Open(magic, commit); err == nil {
			s.Delete(shadow) // the crash hit after the flip
			return p, Clean
		}
	}
	if hasShadow {
		if p, err := Open(magic, shadowRec); err == nil {
			// The flip never landed (or tore); the shadow holds the
			// full intended record.
			s.Set(key, shadowRec)
			s.Delete(shadow)
			return p, RolledForward
		}
	}
	if hasCommit || hasShadow {
		// Some record existed but nothing opens: the truth is
		// unknowable. Drop both; the caller must apply its fail-closed
		// policy, never the default it uses for an absent record.
		s.Delete(key)
		s.Delete(shadow)
		return nil, Quarantined
	}
	return nil, Absent
}

// BaseKeys lists, sorted, the base key of every record under prefix in
// a keyspace that names shadows base+ShadowSuffix. It picks up orphan
// shadows too: a crash between the shadow write and the flip leaves
// only the shadow behind.
func BaseKeys(s Store, prefix string) []string {
	seen := map[string]bool{}
	var bases []string
	for _, key := range s.Keys() {
		base := strings.TrimSuffix(key, ShadowSuffix)
		if strings.HasPrefix(base, prefix) && !seen[base] {
			seen[base] = true
			bases = append(bases, base)
		}
	}
	sort.Strings(bases)
	return bases
}
