package difc

import (
	"math/rand"
	"sort"
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

// uncachedSubset recomputes l ⊆ other from the raw tag sets, bypassing
// both interning and the memo table. It is the test oracle.
func uncachedSubset(l, other Label) bool {
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

// TestCachedSubsetMatchesUncached is the core memo-soundness property:
// for arbitrary label pairs, the interned/cached SubsetOf answer equals
// uncached recomputation — on a cold cache, a warm cache, and again
// after a full eviction.
func TestCachedSubsetMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ia, ib := Intern(a), Intern(b)
		want := uncachedSubset(a, b)
		if ia.SubsetOf(ib) != want { // cold or warm
			t.Logf("mismatch pre-flush: %v ⊆ %v want %v", a, b, want)
			return false
		}
		if ia.SubsetOf(ib) != want { // definitely warm now
			t.Logf("mismatch warm: %v ⊆ %v want %v", a, b, want)
			return false
		}
		FlushFlowCache()
		if ia.SubsetOf(ib) != want { // post-eviction recompute
			t.Logf("mismatch post-flush: %v ⊆ %v want %v", a, b, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestCachedCanFlowToMatchesUncached lifts the property to the full
// CanFlowTo relation over interned label pairs.
func TestCachedCanFlowToMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 1))
	prop := func() bool {
		src, dst := genLabels(r), genLabels(r)
		want := uncachedSubset(src.S, dst.S) && uncachedSubset(dst.I, src.I)
		isrc, idst := InternLabels(src), InternLabels(dst)
		if isrc.CanFlowTo(idst) != want {
			return false
		}
		FlushFlowCache()
		if isrc.CanFlowTo(idst) != want {
			return false
		}
		// CheckFlow must agree with CanFlowTo on the same cached pairs.
		err := CheckFlow("test", isrc, idst)
		return (err == nil) == want
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternPreservesSemantics: interning must be observably invisible —
// equality, ordering (subset), membership, rendering and derived-label
// operations all agree between a label and its interned twin.
func TestInternPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed + 2))
	prop := func() bool {
		a, b := genLabel(r), genLabel(r)
		ia, ib := Intern(a), Intern(b)
		if !ia.Interned() || !ib.Interned() {
			return false
		}
		// Identity: same tags, same rendering.
		if !ia.Equal(a) || ia.String() != a.String() || ia.Len() != a.Len() {
			return false
		}
		// Equality agrees in every interned/uninterned combination.
		want := a.Equal(b)
		if ia.Equal(ib) != want || ia.Equal(b) != want || a.Equal(ib) != want {
			return false
		}
		// Ordering (the lattice partial order) agrees likewise.
		ws, wr := a.SubsetOf(b), b.SubsetOf(a)
		if ia.SubsetOf(ib) != ws || ia.SubsetOf(b) != ws || a.SubsetOf(ib) != ws {
			return false
		}
		if ib.SubsetOf(ia) != wr {
			return false
		}
		// Derived labels are tag-identical regardless of interning.
		if !ia.Union(ib).Equal(a.Union(b)) || !ia.Meet(ib).Equal(a.Meet(b)) || !ia.Minus(ib).Equal(a.Minus(b)) {
			return false
		}
		// Canonical ids: re-interning equal labels yields the same id.
		ia2 := Intern(NewLabel(a.Tags()...))
		return (ia2.id == ia.id) == true && (ia.id == ib.id) == want
	}
	if err := quick.Check(prop, quickCfg(t, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestInternEmptyLabel pins the reserved empty-label id and its lattice
// bottom behaviour.
func TestInternEmptyLabel(t *testing.T) {
	e := Intern(Label{})
	if e.id != emptyInternID || !e.IsEmpty() {
		t.Fatalf("empty label interned as id=%d empty=%v", e.id, e.IsEmpty())
	}
	if e2 := Intern(NewLabel()); e2.id != emptyInternID {
		t.Fatalf("second empty intern got id %d", e2.id)
	}
	l := Intern(NewLabel(3, 4))
	if !e.SubsetOf(l) || l.SubsetOf(e) {
		t.Fatal("empty label is not behaving as lattice bottom")
	}
}

// TestFlowCacheEviction fills a single shard past its capacity via the
// internal store/load API and checks (a) the shard is cleared rather
// than growing unboundedly, and (b) answers recomputed after the wipe
// still match the oracle.
func TestFlowCacheEviction(t *testing.T) {
	FlushFlowCache()
	// Labels above inlineCap tags: a pair with an inline left operand
	// resolves by a direct walk and never touches the memo table, so the
	// eviction test needs heap-represented labels.
	a := Intern(NewLabel(1, 2, 3, 4, 5))
	b := Intern(NewLabel(1, 2, 3, 4, 5, 6))
	sh := flowShardFor(a.id, b.id)
	want := uncachedSubset(a, b)

	// Warm the real entry, then stuff the same shard with synthetic keys
	// until the next store must evict.
	if a.SubsetOf(b) != want {
		t.Fatal("warmup answer wrong")
	}
	sh.mu.Lock()
	for i := uint64(0); len(sh.m) < flowCacheShardCap; i++ {
		sh.m[flowKey{^i, ^(i >> 1)}] = false
	}
	sh.mu.Unlock()

	storeSubset(a.id, b.id, want) // at cap: must clear first
	sh.mu.Lock()
	n := len(sh.m)
	sh.mu.Unlock()
	if n != 1 {
		t.Fatalf("shard not evicted at capacity: %d entries", n)
	}
	if _, _, ev := FlowCacheStats(); ev == 0 {
		t.Fatal("eviction counter never advanced")
	}
	if a.SubsetOf(b) != want || b.SubsetOf(a) != uncachedSubset(b, a) {
		t.Fatal("post-eviction answers diverge from oracle")
	}
}

// TestInternTableBoundedDegradation: when a shard refuses new entries
// the label comes back un-interned but otherwise intact.
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

	got := Intern(l)
	if got.Interned() {
		t.Fatal("full shard still admitted a label")
	}
	if !got.Equal(l) || got.String() != l.String() {
		t.Fatal("degraded intern changed the label")
	}
	if !sort.SliceIsSorted(got.Tags(), func(i, j int) bool { return got.Tags()[i] < got.Tags()[j] }) {
		t.Fatal("degraded intern broke tag ordering")
	}
}

// TestFlowCacheConcurrent hammers intern+subset from many goroutines
// under -race: the global tables must be safe without external locking.
func TestFlowCacheConcurrent(t *testing.T) {
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			r := rand.New(rand.NewSource(*difcSeed + int64(w)))
			for i := 0; i < 2000; i++ {
				a, b := Intern(genLabel(r)), Intern(genLabel(r))
				if a.SubsetOf(b) != uncachedSubset(a, b) {
					t.Errorf("worker %d: cached subset diverged", w)
					return
				}
				if i%512 == 0 {
					FlushFlowCache()
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestFlowCacheServesOnlyHeapPairs pins which operand shapes the flow
// cache serves. An inline left operand (at most inlineCap tags) against
// an interned heap label is decided by a binary search per tag: it must
// agree with uncachedSubset and leave FlowCacheStats unchanged, for
// subsets, for non-subsets the signature rejects, and for non-subsets
// that pass the signature check (t78 shares t7's signature bit). A
// heap×heap pair of interned labels that passes the signature and length
// checks still records one lookup, subset or not.
func TestFlowCacheServesOnlyHeapPairs(t *testing.T) {
	if tagBit(78) != tagBit(7) {
		t.Fatal("t78 no longer shares t7's signature bit; pick another collision")
	}
	wide := Intern(wideLabel(1, 48))
	lookups := func() uint64 {
		h, m, _ := FlowCacheStats()
		return h + m
	}
	r := rand.New(rand.NewSource(*difcSeed + 3))
	smalls := []Label{NewLabel(), NewLabel(7), NewLabel(1, 48), NewLabel(78), NewLabel(3, 7, 78), NewLabel(99)}
	for i := 0; i < 200; i++ {
		tags := make([]Tag, 1+r.Intn(inlineCap))
		for j := range tags {
			tags[j] = Tag(1 + r.Intn(60))
		}
		smalls = append(smalls, NewLabel(tags...))
	}
	for _, small := range smalls {
		for _, a := range []Label{small, Intern(small)} {
			if a.heap != nil {
				t.Fatalf("%v is not inline", a)
			}
			before := lookups()
			if got, want := a.SubsetOf(wide), uncachedSubset(a, wide); got != want {
				t.Fatalf("%v ⊆ wide = %v, want %v", a, got, want)
			}
			if n := lookups() - before; n != 0 {
				t.Fatalf("%v ⊆ wide consulted the flow cache %d times", a, n)
			}
		}
	}
	FlushFlowCache()
	inside := Intern(wideLabel(1, 8))
	outside := Intern(wideLabel(1, 7).Add(78)) // passes the signature check
	for _, pair := range [][2]Label{{inside, wide}, {outside, wide}} {
		before := lookups()
		if got, want := pair[0].SubsetOf(pair[1]), uncachedSubset(pair[0], pair[1]); got != want {
			t.Fatalf("%v ⊆ %v = %v, want %v", pair[0], pair[1], got, want)
		}
		if n := lookups() - before; n != 1 {
			t.Fatalf("heap×heap %v ⊆ %v recorded %d flow-cache lookups, want 1", pair[0], pair[1], n)
		}
	}
}
