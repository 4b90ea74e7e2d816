package telemetry

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestRecorderOffFootprint pins what a recorder that never records
// costs: its counters and histograms, not the 64 KiB ring set. Every
// flight-recorder reader treats the missing ring set as empty and leaves
// it missing.
func TestRecorderOffFootprint(t *testing.T) {
	const n = 100
	keep := make([]*Recorder, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRecorder()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 16<<10 {
		t.Errorf("NewRecorder allocates %d B, want less than 16 KiB", per)
	}

	r := keep[0]
	r.SetLevel(LevelDeny)
	r.SetLevel(LevelOff)
	if evs := r.Snapshot(); len(evs) != 0 {
		t.Errorf("Snapshot of an idle recorder = %v, want empty", evs)
	}
	if evs := r.Denials(); len(evs) != 0 {
		t.Errorf("Denials of an idle recorder = %v, want empty", evs)
	}
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("Dump of an idle recorder wrote %q, want nothing", buf.String())
	}
	if r.rings.Load() != nil {
		t.Error("reading an idle recorder allocated its ring set")
	}
}

// TestRingFirstRecordConcurrent makes ringShards goroutines record their
// recorder's first events at once. Exactly one ring set may be
// allocated between them, and every event fits in its shard, so none may
// be lost: the snapshot holds all of them, in strictly increasing Seq,
// with each goroutine's events in the order it emitted them.
func TestRingFirstRecordConcurrent(t *testing.T) {
	const perTID = ringSize / 4
	setSize := uint64(unsafe.Sizeof(ringSet{}))
	for trial := 0; trial < 20; trial++ {
		r := NewRecorder()
		r.SetLevel(LevelDeny)
		start, more := make(chan struct{}), make(chan struct{})
		var first, rest sync.WaitGroup
		for tid := uint64(0); tid < ringShards; tid++ {
			first.Add(1)
			rest.Add(1)
			go func() {
				defer rest.Done()
				<-start
				r.Emit(Event{TID: tid, Kind: KindDeny, Ino: 0})
				first.Done()
				<-more
				for i := uint64(1); i < perTID; i++ {
					r.Emit(Event{TID: tid, Kind: KindDeny, Ino: i})
				}
			}()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		close(start)
		first.Wait()
		runtime.ReadMemStats(&after)
		close(more)
		rest.Wait()
		if got := after.TotalAlloc - before.TotalAlloc; got < setSize || got >= 2*setSize {
			t.Fatalf("trial %d: concurrent first records allocated %d B, want one %d B ring set", trial, got, setSize)
		}

		evs := r.Snapshot()
		if len(evs) != ringShards*perTID {
			t.Fatalf("trial %d: snapshot holds %d events, want %d", trial, len(evs), ringShards*perTID)
		}
		next := make(map[uint64]uint64)
		for i, e := range evs {
			if i > 0 && e.Seq <= evs[i-1].Seq {
				t.Fatalf("trial %d: Seq %d after %d", trial, e.Seq, evs[i-1].Seq)
			}
			if e.Ino != next[e.TID] {
				t.Fatalf("trial %d: tid %d event %d out of order, want %d", trial, e.TID, e.Ino, next[e.TID])
			}
			next[e.TID]++
		}
	}
}
