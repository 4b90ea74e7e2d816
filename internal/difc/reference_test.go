package difc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential testing: every optimized sorted-slice set operation is
// checked against a naive map-based reference model on random inputs.

type refSet map[Tag]bool

func toRef(l Label) refSet {
	m := make(refSet)
	for _, t := range l.Tags() {
		m[t] = true
	}
	return m
}

func refEqual(m refSet, l Label) bool {
	if len(m) != l.Len() {
		return false
	}
	for t := range m {
		if !l.Has(t) {
			return false
		}
	}
	return true
}

func TestDiffUnion(t *testing.T) {
	f := func(a, b Label) bool {
		want := toRef(a)
		for t := range toRef(b) {
			want[t] = true
		}
		return refEqual(want, a.Union(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffMeet(t *testing.T) {
	f := func(a, b Label) bool {
		bm := toRef(b)
		want := make(refSet)
		for t := range toRef(a) {
			if bm[t] {
				want[t] = true
			}
		}
		return refEqual(want, a.Meet(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffMinus(t *testing.T) {
	f := func(a, b Label) bool {
		bm := toRef(b)
		want := make(refSet)
		for t := range toRef(a) {
			if !bm[t] {
				want[t] = true
			}
		}
		return refEqual(want, a.Minus(b))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffSubsetOf(t *testing.T) {
	f := func(a, b Label) bool {
		bm := toRef(b)
		want := true
		for t := range toRef(a) {
			if !bm[t] {
				want = false
				break
			}
		}
		return want == a.SubsetOf(b)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffCanFlow(t *testing.T) {
	// Reference: brute-force the two subset conditions element-wise.
	f := func(x, y Labels) bool {
		want := true
		ym := toRef(y.S)
		for t := range toRef(x.S) {
			if !ym[t] {
				want = false
			}
		}
		xm := toRef(x.I)
		for t := range toRef(y.I) {
			if !xm[t] {
				want = false
			}
		}
		return want == x.CanFlowTo(y)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffCanChange(t *testing.T) {
	f := func(from, to Label, caps CapSet) bool {
		plus, minus := toRef(caps.Plus()), toRef(caps.Minus())
		fromM, toM := toRef(from), toRef(to)
		want := true
		for t := range toM {
			if !fromM[t] && !plus[t] {
				want = false
			}
		}
		for t := range fromM {
			if !toM[t] && !minus[t] {
				want = false
			}
		}
		return want == CanChange(from, to, caps)
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

func TestDiffAddRemove(t *testing.T) {
	f := func(a Label, tag Tag) bool {
		if tag == InvalidTag {
			return true
		}
		want := toRef(a)
		want[tag] = true
		if !refEqual(want, a.Add(tag)) {
			return false
		}
		delete(want, tag)
		return refEqual(want, a.Add(tag).Remove(tag))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

// genWide draws a label of up to 24 tags, interned or not, so the heap
// representation, the >2*inlineCap build paths and interned operands all
// occur. Tags come from 1..32, where the signature bits do not collide
// and overlaps are common, or from 1..100, where collisions let the
// signature filter pass and leave the verdict to the merge walks.
func genWide(r *rand.Rand) Label {
	universe := []int{32, 100}[r.Intn(2)]
	tags := make([]Tag, r.Intn(25))
	for i := range tags {
		tags[i] = Tag(r.Intn(universe) + 1)
	}
	l := NewLabel(tags...)
	if r.Intn(2) == 0 {
		l = Intern(l)
	}
	return l
}

// idCanonical reports whether l's intern id, if it carries one, names
// exactly l's tag set: a nonzero id must always be canonical.
func idCanonical(l Label) bool {
	if l.id == 0 {
		return true
	}
	canon, ok := LabelByID(l.id)
	return ok && canon.Equal(l) && canon.Equal(NewLabel(l.Tags()...))
}

// TestDiffAlgebraInterned checks Union, Minus and Meet on wide, partly
// interned operands against the reference model, and that any id a
// result carries (Union and Minus may return an operand as is) resolves
// through LabelByID to an Equal label.
func TestDiffAlgebraInterned(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	for n := 0; n < 2000; n++ {
		a, b := genWide(r), genWide(r)
		am, bm := toRef(a), toRef(b)
		union, minus, meet := make(refSet), make(refSet), make(refSet)
		for tg := range am {
			union[tg] = true
			if bm[tg] {
				meet[tg] = true
			} else {
				minus[tg] = true
			}
		}
		for tg := range bm {
			union[tg] = true
		}
		for _, c := range []struct {
			op   string
			want refSet
			got  Label
		}{
			{"Union", union, a.Union(b)},
			{"Minus", minus, a.Minus(b)},
			{"Meet", meet, a.Meet(b)},
		} {
			if !refEqual(c.want, c.got) {
				t.Fatalf("%v.%s(%v) = %v, reference disagrees", a, c.op, b, c.got)
			}
			if !idCanonical(c.got) {
				t.Fatalf("%v.%s(%v) = %v carries id %d that does not name it", a, c.op, b, c.got, c.got.id)
			}
		}
		if b.IsEmpty() || len(minus) == len(am) {
			if got := a.Minus(b); got.id != a.id {
				t.Fatalf("%v.Minus(%v) removes nothing but dropped the receiver's id", a, b)
			}
		}
	}
}

// TestDiffCheckAcquireWide checks CheckAcquire's verdict and its Missing
// set against the reference want − (C+ ∪ have) on wide operands, so the
// allocation-free coverage test and the slow path that builds the
// missing set are both compared with the model.
func TestDiffCheckAcquireWide(t *testing.T) {
	r := rand.New(rand.NewSource(*difcSeed))
	for n := 0; n < 2000; n++ {
		have, want, plus := genWide(r), genWide(r), genWide(r)
		missing := make(refSet)
		hm, pm := toRef(have), toRef(plus)
		for tg := range toRef(want) {
			if !hm[tg] && !pm[tg] {
				missing[tg] = true
			}
		}
		err := CheckAcquire("test", have, want, NewCapSet(plus, EmptyLabel))
		if (err == nil) != (len(missing) == 0) {
			t.Fatalf("CheckAcquire(have=%v, want=%v, C+=%v) = %v, reference missing %v", have, want, plus, err, missing)
		}
		if err != nil && !refEqual(missing, err.(*ChangeError).Missing) {
			t.Fatalf("CheckAcquire Missing = %v, reference %v", err.(*ChangeError).Missing, missing)
		}
	}
}

// collidingTag returns the next tag after t whose signature bit is t's.
func collidingTag(t Tag) Tag {
	for c := t + 1; ; c++ {
		if tagBit(c) == tagBit(t) {
			return c
		}
	}
}

// TestSignatureCollisionsReachTheWalks builds labels whose signatures
// cannot tell them apart, so every verdict below is decided by the
// length check or a merge walk rather than the signature filter.
func TestSignatureCollisionsReachTheWalks(t *testing.T) {
	a := Tag(1)
	c := collidingTag(a)
	one, other, two := NewLabel(a), NewLabel(c), NewLabel(a, c)
	if one.sig != other.sig || two.sig != one.sig {
		t.Fatal("signatures differ: the test needs colliding tags")
	}
	if two.SubsetOf(one) || other.SubsetOf(one) || !one.SubsetOf(two) {
		t.Error("SubsetOf wrong on colliding inline labels")
	}
	if two.Equal(one) || other.Equal(one) {
		t.Error("Equal wrong on colliding labels")
	}
	// Interned heap labels take the flow-cache path.
	wide := Intern(NewLabel(a, 2, 3, 4, 5, 6))
	wideC := Intern(NewLabel(c, 2, 3, 4, 5, 6))
	if wideC.sig != wide.sig {
		t.Fatal("heap signatures differ")
	}
	for i := 0; i < 2; i++ { // miss, then hit
		if wideC.SubsetOf(wide) || wide.SubsetOf(wideC) {
			t.Error("SubsetOf wrong on colliding interned heap labels")
		}
	}
	err := CheckAcquire("test", one, other, EmptyCapSet)
	if ce, ok := err.(*ChangeError); !ok || !ce.Missing.Equal(other) {
		t.Errorf("CheckAcquire(have %v, want %v) = %v, want Missing %v", one, other, err, other)
	}
	if CanChange(one, other, EmptyCapSet) || !CanChange(one, other, NewCapSet(other, one)) {
		t.Error("CanChange wrong on colliding labels")
	}
	// An integrity tag dropped without its minus capability.
	err = CheckEnterRegion(Labels{I: one}, NewCapSet(EmptyLabel, other), Labels{}, EmptyCapSet)
	if ce, ok := err.(*ChangeError); !ok || ce.Op != "region-drop" || !ce.Missing.Equal(one) {
		t.Errorf("integrity drop = %v, want region-drop missing %v", err, one)
	}
}

// TestRegionCapsRefusal pins the capability-subset denial of region
// entry: the region asks for capabilities the principal lacks.
func TestRegionCapsRefusal(t *testing.T) {
	held := NewCapSet(NewLabel(1, 2), NewLabel(1, 2))
	if got, want := held.String(), "C(t1+-,t2+-)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	asked := held.Grant(3, CapMinus)
	err := CheckEnterRegion(NewLabels(EmptyLabel, EmptyLabel), held, Unlabeled, asked)
	const want = "difc: region-caps: capability subset violation: need C(t1+-,t2+-,t3-) held for {t3}"
	if err == nil || err.Error() != want {
		t.Errorf("CheckEnterRegion = %v, want %q", err, want)
	}
	if _, ok := LabelByID(1 << 62); ok {
		t.Error("LabelByID resolved an id never assigned")
	}
}
