package difc

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"weak"
)

// The canonical table maps each tag set to the one live node that
// represents it, so every Label with the same tags is the same pointer.
//
// The table is global and shared by every kernel/module instance in the
// process. That is sound because a label's identity is exactly its tag
// set: two modules that allocate the same numeric tags mean the same
// lattice points.
//
// Lookups are lock-free: a reader loads a shard's slot array atomically
// and probes it, so a hit allocates nothing, takes no lock and writes no
// shared word. Only an insert takes the shard mutex. The table holds its
// nodes weakly: once nothing else references a node the GC reclaims it,
// and a cleanup then replaces the node's slot with a tombstone. The
// table has no bound; it holds as many entries as there are live labels
// plus the tombstones since the last rehash.

const tableShards = 64

// entry is one immutable slot value: a node's hash and a weak pointer
// to it. A dead node's entry stays until its cleanup removes it; lookups
// skip it because its weak pointer reads nil.
type entry struct {
	hash uint64
	node weak.Pointer[node]
}

// tombstone marks a slot whose entry was removed, so probes continue
// past it. Its weak pointer is zero, so it never matches.
var tombstone = &entry{}

type slots []atomic.Pointer[entry]

type shard struct {
	slots atomic.Pointer[slots] // open addressing, linear probes; len is a power of two
	mu    sync.Mutex            // serializes inserts, removals and rehashes
	used  int                   // non-nil slots, tombstones included
	live  int                   // entries (non-nil, non-tombstone slots)
}

var (
	table   [tableShards]shard
	inserts atomic.Uint64 // nodes ever created
)

// hashTags mixes the tag set into 64 bits: the top bits pick the shard,
// the low bits the first slot. Four independent lanes keep the
// multiplies of a wide label from waiting on each other.
func hashTags(tags []Tag) uint64 {
	const k = 0x9e3779b97f4a7c15
	a, b, c, d := uint64(len(tags)), uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344), uint64(0xa4093822299f31d0)
	for ; len(tags) >= 4; tags = tags[4:] {
		a = (a ^ uint64(tags[0])) * k
		b = (b ^ uint64(tags[1])) * k
		c = (c ^ uint64(tags[2])) * k
		d = (d ^ uint64(tags[3])) * k
	}
	for _, t := range tags {
		a = (a ^ uint64(t)) * k
	}
	h := a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48)
	// splitmix64 finalizer, so every output bit depends on every input.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func shardFor(h uint64) *shard { return &table[h>>58] }

// find returns the live node in s with the given tags, or nil.
func (s *shard) find(h uint64, tags []Tag) *node {
	sl := s.slots.Load()
	if sl == nil {
		return nil
	}
	mask := uint64(len(*sl) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := (*sl)[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == h {
			if n := e.node.Value(); n != nil && slices.Equal(n.tags, tags) {
				return n
			}
		}
	}
}

// canonical returns the label for tags, which must be sorted, free of
// duplicates and of InvalidTag. The slice is only read; a new node keeps
// a copy, so callers may pass stack scratch.
func canonical(tags []Tag) Label {
	if len(tags) == 0 {
		return Label{}
	}
	h := hashTags(tags)
	s := shardFor(h)
	if n := s.find(h, tags); n != nil {
		return Label{n}
	}
	return Label{s.insert(h, tags)}
}

// insert adds a node for tags unless another goroutine did first.
func (s *shard) insert(h uint64, tags []Tag) *node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.find(h, tags); n != nil {
		return n
	}
	n := &node{tags: slices.Clone(tags)}
	for _, t := range tags {
		n.sig |= tagBit(t)
	}
	e := &entry{hash: h, node: weak.Make(n)}
	if sl := s.slots.Load(); sl == nil || 2*(s.used+1) > len(*sl) {
		s.rehash()
	}
	sl := *s.slots.Load()
	mask := uint64(len(sl) - 1)
	i := h & mask
	for {
		if old := sl[i].Load(); old == nil || old == tombstone {
			if old == nil {
				s.used++
			}
			break
		}
		i = (i + 1) & mask
	}
	sl[i].Store(e)
	s.live++
	inserts.Add(1)
	runtime.AddCleanup(n, removeEntry, e)
	return n
}

// rehash moves the live entries into a fresh array with room for them
// to double, dropping tombstones. Readers still probing the old array
// see a consistent, if stale, table; a miss there falls through to
// insert, which looks again under the lock.
func (s *shard) rehash() {
	size := 16
	for size < 4*(s.live+1) {
		size *= 2
	}
	next := make(slots, size)
	mask := uint64(size - 1)
	if old := s.slots.Load(); old != nil {
		for i := range *old {
			e := (*old)[i].Load()
			if e == nil || e == tombstone {
				continue
			}
			j := e.hash & mask
			for next[j].Load() != nil {
				j = (j + 1) & mask
			}
			next[j].Store(e)
		}
	}
	s.used = s.live
	s.slots.Store(&next)
}

// removeEntry is the cleanup of a reclaimed node: it tombstones the
// node's entry.
func removeEntry(e *entry) {
	s := shardFor(e.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := *s.slots.Load()
	mask := uint64(len(sl) - 1)
	for i := e.hash & mask; ; i = (i + 1) & mask {
		switch sl[i].Load() {
		case nil:
			return
		case e:
			sl[i].Store(tombstone)
			s.live--
			return
		}
	}
}

// InternStats reports canonical-table activity as (hits, misses). A hit
// writes nothing shared, so hits is always 0; misses counts the nodes
// ever inserted. Its only caller is perfbench, whose run records carry
// the difc.intern.* metrics.
func InternStats() (hits, misses uint64) { return 0, inserts.Load() }
