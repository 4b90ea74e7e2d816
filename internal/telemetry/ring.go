package telemetry

import (
	"sort"
	"sync/atomic"
)

// The flight recorder: a fixed-size, lock-free ring of recent events.
//
// Memory model (DESIGN.md §11): the recorder keeps ringShards independent
// rings, each a power-of-two array of atomic.Pointer[Event] slots plus an
// atomic write cursor. A writer claims a slot with cursor.Add(1) and
// publishes the event with a single pointer store; readers Load slots and
// tolerate torn *ordering* (a concurrent writer may have lapped a slot)
// but never torn *events*, because each slot swap replaces a whole
// immutable Event the writer will never touch again. Events are sharded
// by TID so concurrent tasks do not contend on one cursor, and the
// recorder-global Seq (assigned in Emit) restores a total order when the
// shards are merged in Snapshot.
//
// The ring set (64 KiB of slots) is allocated by the first record, not
// by NewRecorder: a recorder that stays at LevelOff, the production
// default, never pays for it. Readers treat a missing ring set as empty.
// After that one allocation the ring never blocks and never allocates
// beyond the one Event the emitter already built: overwrite is the
// eviction policy, which is what a flight recorder wants — on a crash the
// freshest ringShards×ringSize events are still there to dump.

const (
	ringShards = 8
	ringSize   = 1 << 10 // events per shard; 8 KiB of pointers
	ringMask   = ringSize - 1
)

type ring struct {
	cursor atomic.Uint64
	slots  [ringSize]atomic.Pointer[Event]
}

// ringSet is a recorder's shards; the first record allocates it.
type ringSet [ringShards]ring

// record publishes e into the ring shard for its TID.
func (r *Recorder) record(e *Event) {
	rs := r.rings.Load()
	if rs == nil {
		rs = r.allocRings()
	}
	rg := &rs[e.TID%ringShards]
	slot := rg.cursor.Add(1) - 1
	rg.slots[slot&ringMask].Store(e)
}

// allocRings installs the ring set on first use. The lock makes
// concurrent first records allocate exactly one set between them.
func (r *Recorder) allocRings() *ringSet {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	rs := r.rings.Load()
	if rs == nil {
		rs = new(ringSet)
		r.rings.Store(rs)
	}
	return rs
}

// Snapshot returns every event currently held by the flight recorder,
// merged across shards in Seq order. It is safe to call concurrently
// with writers; events published during the walk may or may not appear.
func (r *Recorder) Snapshot() []Event {
	rs := r.rings.Load()
	if rs == nil {
		return nil
	}
	var out []Event
	for s := range rs {
		rg := &rs[s]
		n := rg.cursor.Load()
		if n > ringSize {
			n = ringSize
		}
		for i := uint64(0); i < n; i++ {
			if e := rg.slots[i].Load(); e != nil {
				out = append(out, *e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Denials returns just the denial events from the flight recorder, in
// Seq order.
func (r *Recorder) Denials() []Event {
	all := r.Snapshot()
	out := all[:0]
	for _, e := range all {
		if e.Kind == KindDeny {
			out = append(out, e)
		}
	}
	return out
}
