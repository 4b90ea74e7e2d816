package difc

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Label interning gives each distinct tag set a canonical numeric id.
// Telemetry is its only user: provenance events store the two ids of a
// flow instead of copying tag sets onto the recording path, and dumps and
// replay resolve them back through LabelByID. No verdict reads the table
// or any other process-global memo state — SubsetOf and Equal decide
// from the two labels alone — so interning can never change an answer.
//
// The table is global and shared by every kernel/module instance in the
// process. That is sound because a label's identity is exactly its tag
// set: two modules that allocate the same numeric tags mean the same
// lattice points.
//
// The table is bounded: past maxInternedPerShard entries a shard stops
// admitting new labels and Intern returns 0, which events record as "not
// interned".

const (
	internShardCount    = 64
	maxInternedPerShard = 1 << 14
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]uint64 // tag-set key -> interned id
}

var (
	internTable [internShardCount]internShard
	// internIDs allocates ids starting at 2; id 1 is reserved for the
	// empty label and id 0 means "not interned".
	internIDs atomic.Uint64

	internHits   atomic.Uint64
	internMisses atomic.Uint64

	// internByID is the reverse index (id -> Label) used by the telemetry
	// layer to resolve the interned ids recorded in provenance events back
	// into tag sets for dumps and replay. Writes happen only on first-time
	// interning (cold); reads are lock-free. Memory is bounded by the same
	// per-shard cap as the forward table.
	internByID sync.Map // uint64 -> Label
)

// emptyInternID is the permanent id of the empty label.
const emptyInternID uint64 = 1

func init() { internIDs.Store(emptyInternID) }

// internScratchTags is how many tags Intern packs into a key on the
// stack; a larger label packs its key on the heap.
const internScratchTags = 64

// internKey packs the sorted tag slice into buf (grown if too small) as
// the bytes of its table key. Converting the result to a string in a map
// index does not allocate, so a hit costs no allocation; the key string
// is made only when a miss inserts it.
func internKey(buf []byte, tags []Tag) []byte {
	n := 8 * len(tags)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i, t := range tags {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(t))
	}
	return buf
}

// internShardFor picks a shard by mixing the tag set (fnv-1a over the
// raw tag words) so labels spread evenly regardless of tag density.
func internShardFor(tags []Tag) *internShard {
	h := uint64(14695981039346656037)
	for _, t := range tags {
		h ^= uint64(t)
		h *= 1099511628211
	}
	return &internTable[h%internShardCount]
}

// Intern returns the canonical id of l's tag set: equal labels get equal
// ids and distinct labels distinct ones, and LabelByID resolves the id
// back to an Equal label. When l's shard of the table is full and does
// not yet hold l, Intern returns 0.
func Intern(l Label) uint64 {
	if l.IsEmpty() {
		return emptyInternID
	}
	tags := l.view()
	sh := internShardFor(tags)
	var scratch [8 * internScratchTags]byte
	key := internKey(scratch[:0], tags)

	sh.mu.RLock()
	id, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if ok {
		internHits.Add(1)
		return id
	}

	sh.mu.Lock()
	if id, ok = sh.m[string(key)]; ok {
		sh.mu.Unlock()
		internHits.Add(1)
		return id
	}
	if sh.m == nil {
		sh.m = make(map[string]uint64)
	}
	if len(sh.m) >= maxInternedPerShard {
		sh.mu.Unlock()
		return 0 // table full
	}
	id = internIDs.Add(1)
	sh.m[string(key)] = id
	// Publish the reverse entry before the lock lets another goroutine
	// see id, so LabelByID resolves every id Intern has returned.
	internByID.Store(id, l)
	sh.mu.Unlock()
	internMisses.Add(1)
	return id
}

// LabelByID resolves a canonical intern id back to its label. The empty
// label's reserved id resolves without a table entry; id 0 ("not
// interned") and unknown ids report ok=false.
func LabelByID(id uint64) (Label, bool) {
	if id == emptyInternID {
		return Label{}, true
	}
	if id == 0 {
		return Label{}, false
	}
	if v, ok := internByID.Load(id); ok {
		return v.(Label), true
	}
	return Label{}, false
}

// InternStats reports cumulative intern-table hits and misses (a miss
// is a first-time insertion).
func InternStats() (hits, misses uint64) {
	return internHits.Load(), internMisses.Load()
}
