package difc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

// cached returns the intern table's canonical copy of l: the label that
// dumps and replay resolve an event's id to.
func cached(t *testing.T, l Label) Label {
	t.Helper()
	c, ok := LabelByID(Intern(l))
	if !ok {
		t.Fatalf("LabelByID(Intern(%v)) did not resolve", l)
	}
	return c
}

// TestCachedSubsetMatchesUncached: the intern table caches one
// canonical label per tag set, and replay decides flows on those cached
// copies. SubsetOf must give the oracle's answer on cached, fresh and
// mixed operand pairs alike.
func TestCachedSubsetMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ca, cb := cached(t, a), cached(t, b)
		want := mapSubset(a, b)
		for _, p := range [][2]Label{{a, b}, {ca, cb}, {ca, b}, {a, cb}} {
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
// CanFlowTo relation and to CheckFlow over label pairs resolved through
// the intern table.
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

// TestInternPreservesSemantics: ids are canonical — equal tag sets get
// equal ids whatever their representation, distinct sets distinct ids —
// and LabelByID round-trips every id to a label that is observably the
// same as the original.
func TestInternPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 2))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ia, ib := Intern(a), Intern(b)
		if ia == 0 || ib == 0 {
			return false
		}
		if (ia == ib) != a.Equal(b) {
			return false
		}
		if Intern(NewLabel(a.Tags()...)) != ia || Intern(newLabelHeap(a.Tags()...)) != ia {
			return false
		}
		back, ok := LabelByID(ia)
		if !ok || !back.Equal(a) || back.String() != a.String() || back.Len() != a.Len() {
			return false
		}
		// Derived labels are tag-identical whether built from the
		// original or from the table's copy.
		cb, _ := LabelByID(ib)
		return back.Union(cb).Equal(a.Union(b)) && back.Meet(cb).Equal(a.Meet(b)) && back.Minus(cb).Equal(a.Minus(b))
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternEmptyLabel pins the reserved empty-label id and its lattice
// bottom behaviour.
func TestInternEmptyLabel(t *testing.T) {
	if id := Intern(Label{}); id != emptyInternID {
		t.Fatalf("empty label interned as id %d", id)
	}
	if id := Intern(NewLabel()); id != emptyInternID {
		t.Fatalf("second empty intern got id %d", id)
	}
	if id := Intern(NewLabel(3, 4).Minus(NewLabel(3, 4))); id != emptyInternID {
		t.Fatalf("empty Minus result interned as id %d", id)
	}
	e, ok := LabelByID(emptyInternID)
	if !ok || !e.IsEmpty() {
		t.Fatalf("LabelByID(%d) = %v, %v", emptyInternID, e, ok)
	}
	l, _ := LabelByID(Intern(NewLabel(3, 4)))
	if !e.SubsetOf(l) || l.SubsetOf(e) {
		t.Fatal("empty label is not behaving as lattice bottom")
	}
	if _, ok := LabelByID(0); ok {
		t.Fatal("id 0 resolved to a label")
	}
}

// TestInternTableBoundedDegradation: a full shard refuses a new label —
// Intern returns 0 — without growing or spending an id, and the label
// itself is untouched.
func TestInternTableBoundedDegradation(t *testing.T) {
	l := NewLabel(7, 8, 9)
	sh := internShardFor([]Tag{7, 8, 9})
	sh.mu.Lock()
	saved := sh.m
	full := make(map[string]uint64, maxInternedPerShard)
	for i := 0; len(full) < maxInternedPerShard; i++ {
		full[string(internKey(nil, []Tag{Tag(i + 1), ^Tag(i)}))] = uint64(i + 1000)
	}
	sh.m = full
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		sh.m = saved
		sh.mu.Unlock()
	}()

	nextID := internIDs.Load()
	if id := Intern(l); id != 0 {
		t.Fatalf("full shard still admitted a label as id %d", id)
	}
	sh.mu.RLock()
	n := len(sh.m)
	sh.mu.RUnlock()
	if n != maxInternedPerShard {
		t.Fatalf("full shard grew to %d entries", n)
	}
	if internIDs.Load() != nextID {
		t.Fatal("a refused label spent an id")
	}
	if !l.Equal(NewLabel(9, 8, 7)) || l.String() != "{t7,t8,t9}" {
		t.Fatal("refused intern changed the label")
	}
}

// TestInternConcurrent interns and resolves overlapping labels from many
// goroutines (run under -race in CI): the shard locks and the reverse
// index must be safe without external locking, and every worker must
// see the same id for the same tag set.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	seen := make([]map[string]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(*difcSeed + int64(w)))
			ids := make(map[string]uint64)
			for i := 0; i < 2000; i++ {
				l := genWide(r)
				id := Intern(l)
				back, ok := LabelByID(id)
				if !ok || !back.Equal(l) {
					t.Errorf("worker %d: id %d of %v resolved to %v, %v", w, id, l, back, ok)
					return
				}
				if prev, ok := ids[l.String()]; ok && prev != id {
					t.Errorf("worker %d: %v interned as %d and %d", w, l, prev, id)
					return
				}
				ids[l.String()] = id
			}
			seen[w] = ids
		}(w)
	}
	wg.Wait()
	byID := make(map[uint64]string)
	byLabel := make(map[string]uint64)
	for _, ids := range seen {
		for l, id := range ids {
			if prev, ok := byLabel[l]; ok && prev != id {
				t.Fatalf("%s interned as %d and %d by different workers", l, prev, id)
			}
			if prev, ok := byID[id]; ok && prev != l {
				t.Fatalf("id %d names both %s and %s", id, prev, l)
			}
			byLabel[l], byID[id] = id, l
		}
	}
}
