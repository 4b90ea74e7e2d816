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
		return refEqual(want, a.Add(tag).remove(tag))
	}
	if err := quick.Check(f, quickCfg(t, 1000)); err != nil {
		t.Error(err)
	}
}

// genWide draws a label of up to 64 tags, so the merge walks and
// wide scratch builds occur. Tags come from 1..32, where
// the signature bits do not collide and overlaps are common, or from
// 1..100, where collisions let the signature filter pass and leave the
// verdict to the walks.
func genWide(r *rand.Rand) Label {
	universe := []int{32, 100}[r.Intn(2)]
	tags := make([]Tag, r.Intn(65))
	for i := range tags {
		tags[i] = Tag(r.Intn(universe) + 1)
	}
	return NewLabel(tags...)
}

// fromRef builds the label holding exactly the reference set's tags.
func fromRef(m refSet) Label {
	tags := make([]Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	return NewLabel(tags...)
}

// TestDiffAlgebraInterned checks Union, Minus and Meet on wide operands
// against the reference model, and that each result is the same node as
// the label built from the model's answer. It also cross-checks SubsetOf
// and Equal on the same pairs, and Equal against a separately built twin.
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
			if want := fromRef(c.want); c.got != want {
				t.Fatalf("%v.%s(%v) = %v is not the node of the reference result", a, c.op, b, c.got)
			}
		}
		subset := len(minus) == 0
		if a.SubsetOf(b) != subset {
			t.Fatalf("%v ⊆ %v = %v, reference %v", a, b, a.SubsetOf(b), subset)
		}
		if eq := subset && len(am) == len(bm); a.Equal(b) != eq {
			t.Fatalf("%v.Equal(%v) = %v, reference %v", a, b, a.Equal(b), eq)
		}
		if twin := NewLabel(a.Tags()...); !a.Equal(twin) || !twin.Equal(a) || !a.SubsetOf(twin) {
			t.Fatalf("%v differs from its separately built twin", a)
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
	if one.n.sig != other.n.sig || two.n.sig != one.n.sig {
		t.Fatal("signatures differ: the test needs colliding tags")
	}
	if two.SubsetOf(one) || other.SubsetOf(one) || !one.SubsetOf(two) {
		t.Error("SubsetOf wrong on colliding short labels")
	}
	if two.Equal(one) || other.Equal(one) {
		t.Error("Equal wrong on colliding labels")
	}
	// Longer labels take the merge walk.
	wide := NewLabel(a, 2, 3, 4, 5, 6)
	wideC := NewLabel(c, 2, 3, 4, 5, 6)
	if wideC.n.sig != wide.n.sig {
		t.Fatal("wide signatures differ")
	}
	if wideC.SubsetOf(wide) || wide.SubsetOf(wideC) || wide.Equal(wideC) {
		t.Error("SubsetOf or Equal wrong on colliding wide labels")
	}
	err := CheckAcquire("test", one, other, EmptyCapSet)
	if ce, ok := err.(*ChangeError); !ok || !ce.Missing.Equal(other) {
		t.Errorf("CheckAcquire(have %v, want %v) = %v, want Missing %v", one, other, err, other)
	}
	if CanChange(one, other, EmptyCapSet) || !CanChange(one, other, NewCapSet(other, one)) {
		t.Error("CanChange wrong on colliding labels")
	}
	// An integrity tag dropped without its minus capability.
	pc := NewCapSet(EmptyLabel, other)
	err = CheckEnterRegion(&Labels{I: one}, &pc, &Labels{}, &EmptyCapSet)
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
	err := CheckEnterRegion(&Labels{}, &held, &Unlabeled, &asked)
	const want = "difc: region-caps: capability subset violation: need C(t1+-,t2+-,t3-) held for {t3}"
	if err == nil || err.Error() != want {
		t.Errorf("CheckEnterRegion = %v, want %q", err, want)
	}
}
