package budget

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// refCounters are the budget.* counters a charge moves.
type refCounters struct{ charged, denied, exhausted uint64 }

func loadCounters(rec *telemetry.Recorder) refCounters {
	get := func(name string) uint64 { return rec.M.Extra.Get(name).Load() }
	return refCounters{get("budget.charged"), get("budget.denied"), get("budget.exhausted")}
}

// refCharge is the per-tag reference for ChargeLabel: it visits the
// label's tags one by one, reads each (tag, peer) fact through Fact, and
// predicts the facts, verdict and counters the charge must produce —
// untracked tags are free, the first denial stops the walk, and spends
// before it stand. noted models the exhaustion latch: a tag's first
// observed exhaustion counts once until a SetLimit reopens it.
func refCharge(l *Ledger, lab difc.Label, peer, cost uint64, noted map[Key]bool, c *refCounters) (facts map[Key]Fact, deniedTag difc.Tag, denied bool) {
	if cost == 0 {
		cost = 1
	}
	facts = l.Snapshot()
	for _, tag := range lab.Tags() {
		f, ok := l.Fact(tag, peer)
		if !ok {
			continue
		}
		k := Key{Tag: tag, Peer: peer}
		next := satAdd(f.Spent, cost)
		if f.Exhausted() || next > f.Limit {
			if !noted[k] {
				noted[k] = true
				c.exhausted++
			}
			c.denied++
			return facts, tag, true
		}
		f.Spent = next
		facts[k] = f
		c.charged++
		if next >= f.Limit && !noted[k] {
			noted[k] = true
			c.exhausted++
		}
	}
	return facts, 0, false
}

// randLabel draws a label of 0 to 48 tags from 1..64, weighted toward
// the one-tag and inline (at most four tags) shapes the hot paths see.
func randLabel(r *rand.Rand) difc.Label {
	var n int
	switch r.Intn(4) {
	case 0:
		n = 1
	case 1:
		n = r.Intn(5)
	default:
		n = r.Intn(49)
	}
	tags := make([]difc.Tag, n)
	for i := range tags {
		tags[i] = difc.Tag(1 + r.Intn(64))
	}
	return difc.NewLabel(tags...)
}

// TestChargeLabelWalkMatchesPerTagReference pits ChargeLabel's merge
// walk against refCharge on random ledgers: three budgeted peers plus an
// unbudgeted one, about half of tags 1..64 tracked per peer with small
// limits so tags exhaust mid-label, labels mixing tracked and untracked
// tags, and occasional SetLimit calls that reopen a budget. Every step
// compares the error, every fact, and the budget.* counters, on a
// memory-only and on a store-backed ledger.
func TestChargeLabelWalkMatchesPerTagReference(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(16))
			for trial := 0; trial < 20; trial++ {
				rec := telemetry.NewRecorder()
				opts := []Option{WithRecorder(rec)}
				if durable {
					opts = append(opts, WithStore(newMemStore()))
				}
				l := New(opts...)
				noted := make(map[Key]bool)
				setLimit := func(tag difc.Tag, peer uint64) {
					if err := l.SetLimit(tag, peer, uint64(r.Intn(12))); err != nil {
						t.Fatal(err)
					}
					noted[Key{Tag: tag, Peer: peer}] = false
				}
				for peer := uint64(0); peer < 3; peer++ {
					for tag := difc.Tag(1); tag <= 64; tag++ {
						if r.Intn(2) == 0 {
							setLimit(tag, peer)
						}
					}
				}
				want := loadCounters(rec)
				for step := 0; step < 150; step++ {
					if r.Intn(20) == 0 {
						setLimit(difc.Tag(1+r.Intn(64)), uint64(r.Intn(3)))
						continue
					}
					lab, peer, cost := randLabel(r), uint64(r.Intn(4)), uint64(r.Intn(3))
					wantFacts, wantTag, wantDenied := refCharge(l, lab, peer, cost, noted, &want)
					err := l.ChargeLabel("send", lab, peer, cost)
					where := fmt.Sprintf("trial %d step %d: charge %v peer %d cost %d", trial, step, lab, peer, cost)
					switch {
					case wantDenied && err == nil:
						t.Fatalf("%s: allowed, reference denies at %v", where, wantTag)
					case !wantDenied && err != nil:
						t.Fatalf("%s: denied (%v), reference allows", where, err)
					case wantDenied:
						var fe *difc.FlowError
						if !errors.As(err, &fe) || !reflect.DeepEqual(fe, ExhaustedError("send", wantTag)) {
							t.Fatalf("%s: denial %v, want the exhaustion of %v", where, err, wantTag)
						}
					}
					if got := l.Snapshot(); !reflect.DeepEqual(got, wantFacts) {
						t.Fatalf("%s: facts diverge from the reference:\n got  %v\n want %v", where, got, wantFacts)
					}
					if got := loadCounters(rec); got != want {
						t.Fatalf("%s: counters %+v, reference %+v", where, got, want)
					}
				}
			}
		})
	}
}

// TestChargeLabelStopsAtFirstDenial pins the partial-spend rule on one
// label: the tag before the exhausted one is charged, the exhausted tag
// denies, and the tag after it is untouched.
func TestChargeLabelStopsAtFirstDenial(t *testing.T) {
	for _, durable := range []bool{false, true} {
		var opts []Option
		if durable {
			opts = append(opts, WithStore(newMemStore()))
		}
		l := New(opts...)
		for _, tag := range []difc.Tag{3, 5, 9} {
			l.SetLimit(tag, 0, 10)
		}
		l.SetLimit(5, 0, 0)
		err := l.ChargeLabel("region_exit", difc.NewLabel(1, 3, 5, 7, 9), 0, 2)
		if !reflect.DeepEqual(err, ExhaustedError("region_exit", 5)) {
			t.Fatalf("durable=%v: err = %v, want the exhaustion of t5", durable, err)
		}
		for tag, spent := range map[difc.Tag]uint64{3: 2, 5: 0, 9: 0} {
			if f, _ := l.Fact(tag, 0); f.Spent != spent {
				t.Errorf("durable=%v: %v spent %d, want %d", durable, tag, f.Spent, spent)
			}
		}
	}
}

// TestChargeInvalidTagIsFree pins Charge's one-tag-label form at the
// InvalidTag edge: NewLabel drops tag 0, so it is never charged even
// when a fact for it exists.
func TestChargeInvalidTagIsFree(t *testing.T) {
	l := New()
	l.SetLimit(difc.InvalidTag, 0, 0)
	if err := l.Charge("send", difc.InvalidTag, 0, 1); err != nil {
		t.Fatalf("charge of InvalidTag denied: %v", err)
	}
}

// TestChargeLabelWideAllocFree pins the GradeSheet region exit: a 48-tag
// label charged against 48 facts allocates nothing.
func TestChargeLabelWideAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	l, lab := wideLedger(t)
	if n := testing.AllocsPerRun(100, func() {
		if err := l.ChargeLabel("region_exit", lab, 0, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("48-tag ChargeLabel: %v allocs/op, want 0", n)
	}
}

// TestExportFactsOrder pins the ExportFacts wire order: facts installed
// out of order across peers export sorted by (tag, peer), byte for byte.
func TestExportFactsOrder(t *testing.T) {
	l := New()
	for _, f := range []struct {
		tag         difc.Tag
		peer, limit uint64
	}{{9, 1, 40}, {2, 7, 10}, {2, 0, 20}, {5, 7, 30}} {
		l.SetLimit(f.tag, f.peer, f.limit)
	}
	want := binary.BigEndian.AppendUint16(nil, 4)
	for _, r := range [][5]uint64{{2, 0, 0, 20, 1}, {2, 7, 0, 10, 1}, {5, 7, 0, 30, 1}, {9, 1, 0, 40, 1}} {
		for _, v := range r {
			want = binary.BigEndian.AppendUint64(want, v)
		}
	}
	if got := l.ExportFacts(); !bytes.Equal(got, want) {
		t.Fatalf("ExportFacts =\n%x\nwant\n%x", got, want)
	}
}

// TestChargeLabelConcurrentWithRepublish races lock-free ChargeLabel
// walks against SetLimit calls that republish the table with new rows
// and new tags. No acknowledged charge may be lost and no tag may spend
// past its limit.
func TestChargeLabelConcurrentWithRepublish(t *testing.T) {
	l, lab := wideLedger(t)
	const limit, workers, rounds = 500, 4, 200
	for tag := difc.Tag(1); tag <= 48; tag++ {
		l.SetLimit(tag, 0, limit)
	}
	var wg sync.WaitGroup
	acked := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if l.ChargeLabel("region_exit", lab, 0, 1) == nil {
					acked[w]++
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			l.SetLimit(difc.Tag(100+i), uint64(i%3), 1<<20) // new tags, new rows
		}
	}()
	wg.Wait()
	total := 0
	for _, n := range acked {
		total += n
	}
	// Every charge passes tag 1 before any other tag, so once tag 1 is
	// spent every later charge is denied there: exactly limit charges
	// succeed, each spending one unit of every tag.
	if total != limit {
		t.Fatalf("%d charges acknowledged, want exactly the limit %d", total, limit)
	}
	for tag := difc.Tag(1); tag <= 48; tag++ {
		if f, _ := l.Fact(tag, 0); f.Spent != limit {
			t.Fatalf("%v spent %d, want %d", tag, f.Spent, limit)
		}
	}
}

// TestSeek pins seek's branchless binary search against sort.Search,
// from every start index, on every row length up to 70 and on tags at
// the top of the 64-bit range.
func TestSeek(t *testing.T) {
	check := func(row []entry, tags []difc.Tag) {
		t.Helper()
		for j := 0; j <= len(row); j++ {
			for _, tag := range tags {
				want := j + sort.Search(len(row)-j, func(i int) bool { return row[j+i].tag >= tag })
				if got := seek(row, j, tag); got != want {
					t.Fatalf("seek(len %d, %d, %v) = %d, want %d", len(row), j, tag, got, want)
				}
			}
		}
	}
	for n := 0; n <= 70; n++ {
		row := make([]entry, n)
		tags := []difc.Tag{0, difc.Tag(2*n + 3)}
		for i := range row {
			row[i].tag = difc.Tag(2*i + 2)
			tags = append(tags, row[i].tag-1, row[i].tag)
		}
		check(row, tags)
	}
	top := []difc.Tag{1, 5, 1 << 63, ^difc.Tag(0) - 1, ^difc.Tag(0)}
	row := make([]entry, len(top))
	for i, tag := range top {
		row[i].tag = tag
	}
	check(row, []difc.Tag{0, 1, 2, 5, 6, 1<<63 - 1, 1 << 63, ^difc.Tag(0) - 2, ^difc.Tag(0) - 1, ^difc.Tag(0)})
}
