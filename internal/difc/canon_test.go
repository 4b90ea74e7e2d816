package difc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// genLabel draws a random small label. Tag values are kept in a narrow
// range so random pairs overlap often enough to exercise both subset
// outcomes.
func genLabel(r *rand.Rand) Label {
	n := r.Intn(6)
	tags := make([]Tag, 0, n)
	for i := 0; i < n; i++ {
		tags = append(tags, Tag(1+r.Intn(12)))
	}
	return NewLabel(tags...)
}

func genLabels(r *rand.Rand) Labels {
	return Labels{S: genLabel(r), I: genLabel(r)}
}

// mapSubset recomputes l ⊆ other over a map of other's tags. It is the
// test oracle.
func mapSubset(l, other Label) bool {
	ts := other.Tags()
	has := make(map[Tag]bool, len(ts))
	for _, t := range ts {
		has[t] = true
	}
	for _, t := range l.Tags() {
		if !has[t] {
			return false
		}
	}
	return true
}

// cached returns the canonical label for l's tag set, rebuilt from a
// copy of its tags: the label that a dump's reader rebuilds.
func cached(t *testing.T, l Label) Label {
	t.Helper()
	c := NewLabel(l.Tags()...)
	if c != l {
		t.Fatalf("rebuilding %v gave a second node", l)
	}
	return c
}

// TestCachedSubsetMatchesUncached: the canonical table keeps one node
// per tag set, and replay decides flows on labels rebuilt from a dump.
// SubsetOf must give the oracle's answer on rebuilt, fresh and mixed
// operand pairs alike.
func TestCachedSubsetMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ca, cb := cached(t, a), cached(t, b)
		want := mapSubset(a, b)
		for _, p := range [][2]Label{{a, b}, {ca, cb}, {ca, b}, {a, cb}, {a, b}} {
			if p[0].SubsetOf(p[1]) != want {
				t.Logf("mismatch: %v ⊆ %v want %v", p[0], p[1], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestCachedCanFlowToMatchesUncached lifts the property to the full
// CanFlowTo relation and to CheckFlow over label pairs rebuilt from
// their tags.
func TestCachedCanFlowToMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 1))
	prop := func() bool {
		src, dst := genLabels(r), genLabels(r)
		want := mapSubset(src.S, dst.S) && mapSubset(dst.I, src.I)
		csrc := Labels{S: cached(t, src.S), I: cached(t, src.I)}
		cdst := Labels{S: cached(t, dst.S), I: cached(t, dst.I)}
		if src.CanFlowTo(dst) != want || csrc.CanFlowTo(cdst) != want || csrc.CanFlowTo(dst) != want {
			return false
		}
		err := CheckFlow("test", csrc, cdst)
		return (err == nil) == want
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternPreservesSemantics: labels are canonical — two labels are
// == exactly when they hold the same tags, a label rebuilt from its tags
// is the same node, and labels derived from rebuilt operands are the
// same nodes as those derived from the originals.
func TestInternPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 2))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		if (a == b) != (mapSubset(a, b) && mapSubset(b, a)) {
			return false
		}
		back := NewLabel(a.Tags()...)
		if back != a || back.String() != a.String() || back.Len() != a.Len() {
			return false
		}
		cb := NewLabel(b.Tags()...)
		return back.Union(cb) == a.Union(b) && back.Meet(cb) == a.Meet(b) && back.Minus(cb) == a.Minus(b)
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternEmptyLabel pins the empty label: it is the zero word by every
// route, and it behaves as the lattice bottom.
func TestInternEmptyLabel(t *testing.T) {
	for _, e := range []Label{NewLabel(), NewLabel(InvalidTag, InvalidTag), NewLabel(3, 4).Minus(NewLabel(3, 4)),
		NewLabel(3).remove(3), NewLabel(3).Meet(NewLabel(4))} {
		if e != (Label{}) || !e.IsEmpty() {
			t.Fatalf("empty label %v is not the zero word", e)
		}
	}
	e, l := EmptyLabel, NewLabel(3, 4)
	if !e.SubsetOf(l) || l.SubsetOf(e) {
		t.Fatal("empty label is not behaving as lattice bottom")
	}
	if got, _ := UnmarshalLabel([]byte{0, 0, 0, 0}); got != e {
		t.Fatal("decoding the empty label gave a node")
	}
}

// TestInternConcurrent builds overlapping labels from many goroutines
// (run under -race in CI): the table must be safe without external
// locking, and every worker must get the same node for the same tag set.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	seen := make([]map[string]Label, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(*difcSeed + int64(w)))
			labels := make(map[string]Label)
			for i := 0; i < 2000; i++ {
				l := genWide(r)
				if back := NewLabel(l.Tags()...); back != l {
					t.Errorf("worker %d: %v rebuilt as a second node %v", w, l, back)
					return
				}
				labels[l.String()] = l
			}
			seen[w] = labels
		}(w)
	}
	wg.Wait()
	byTags := make(map[string]Label)
	for _, labels := range seen {
		for s, l := range labels {
			if prev, ok := byTags[s]; ok && prev != l {
				t.Fatalf("%s is two nodes in different workers", s)
			}
			byTags[s] = l
		}
	}
}

// TestConcurrentFirstBuild has 8 goroutines build the same fresh label
// at the same moment: they race to insert it, and all must get one node.
func TestConcurrentFirstBuild(t *testing.T) {
	const workers = 8
	for round := 0; round < 50; round++ {
		tags := []Tag{Tag(1 << 40), Tag(1<<40 + round + 1), Tag(1<<41 + round)}
		got := make([]Label, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[w] = NewLabel(tags...)
			}()
		}
		start.Done()
		done.Wait()
		for w, l := range got {
			if l != got[0] || l.Len() != 3 {
				t.Fatalf("round %d: worker %d got %v (%p), worker 0 %v (%p)", round, w, l, l.n, got[0], got[0].n)
			}
		}
	}
}

// TestTableReclaims builds 2^18 throwaway labels and drops them: after
// a GC their cleanups must remove their entries, so the table shrinks
// back to within a small constant of its size before.
func TestTableReclaims(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2^18 labels")
	}
	runtime.GC()
	settle()
	_, before := InternStats()
	live := tableLive()
	for i := 0; i < 1<<18; i++ {
		if NewLabel(Tag(1<<50+i)).Len() != 1 {
			t.Fatal("NewLabel lost a tag")
		}
	}
	if _, after := InternStats(); after-before != 1<<18 {
		t.Fatalf("2^18 distinct labels inserted %d nodes", after-before)
	}
	// Cleanups run on their own goroutine after the GC that finds the
	// nodes dead; give them a few cycles.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		settle()
		after := tableLive()
		if after <= live+64 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("table holds %d entries after reclamation, %d before", after, live)
		}
	}
}

// tableLive reports how many entries the table holds.
func tableLive() int {
	total := 0
	for i := range table {
		s := &table[i]
		s.mu.Lock()
		total += s.live
		s.mu.Unlock()
	}
	return total
}

// settle gives queued cleanups a moment to run.
func settle() { time.Sleep(10 * time.Millisecond) }
