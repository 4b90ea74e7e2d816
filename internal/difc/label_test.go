package difc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick produce random small labels drawn from a tag
// universe of 1..16 so that subset/overlap relations actually occur.
func (Label) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(6)
	tags := make([]Tag, n)
	for i := range tags {
		tags[i] = Tag(r.Intn(16) + 1)
	}
	return reflect.ValueOf(NewLabel(tags...))
}

// Generate produces random small capability sets over the same universe.
func (CapSet) Generate(r *rand.Rand, size int) reflect.Value {
	mk := func() Label {
		n := r.Intn(6)
		tags := make([]Tag, n)
		for i := range tags {
			tags[i] = Tag(r.Intn(16) + 1)
		}
		return NewLabel(tags...)
	}
	return reflect.ValueOf(NewCapSet(mk(), mk()))
}

func TestNewLabelDedupsAndSorts(t *testing.T) {
	l := NewLabel(5, 3, 5, 1, 3)
	want := []Tag{1, 3, 5}
	if got := l.Tags(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tags() = %v, want %v", got, want)
	}
	if l.Len() != 3 {
		t.Errorf("Len() = %d, want 3", l.Len())
	}
}

func TestNewLabelDropsInvalidTag(t *testing.T) {
	l := NewLabel(InvalidTag, 2)
	if l.Has(InvalidTag) {
		t.Error("label contains InvalidTag")
	}
	if !l.Has(2) {
		t.Error("label missing tag 2")
	}
	if got := NewLabel(InvalidTag); !got.IsEmpty() {
		t.Errorf("NewLabel(InvalidTag) = %v, want empty", got)
	}
}

func TestLabelHas(t *testing.T) {
	l := NewLabel(2, 4, 8)
	for _, tag := range []Tag{2, 4, 8} {
		if !l.Has(tag) {
			t.Errorf("Has(%v) = false, want true", tag)
		}
	}
	for _, tag := range []Tag{1, 3, 5, 9} {
		if l.Has(tag) {
			t.Errorf("Has(%v) = true, want false", tag)
		}
	}
}

func TestLabelSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Label
		want bool
	}{
		{NewLabel(), NewLabel(), true},
		{NewLabel(), NewLabel(1), true},
		{NewLabel(1), NewLabel(), false},
		{NewLabel(1), NewLabel(1), true},
		{NewLabel(1, 2), NewLabel(1, 2, 3), true},
		{NewLabel(1, 4), NewLabel(1, 2, 3), false},
		{NewLabel(2, 3), NewLabel(1, 2, 3), true},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLabelUnionMeetMinus(t *testing.T) {
	a := NewLabel(1, 2, 3)
	b := NewLabel(3, 4)
	if got := a.Union(b); !got.Equal(NewLabel(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Meet(b); !got.Equal(NewLabel(3)) {
		t.Errorf("Meet = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewLabel(1, 2)) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(NewLabel(4)) {
		t.Errorf("Minus = %v", got)
	}
}

func TestLabelAddRemove(t *testing.T) {
	l := NewLabel(1)
	l2 := l.Add(2)
	if !l2.Equal(NewLabel(1, 2)) {
		t.Errorf("Add = %v", l2)
	}
	if !l.Equal(NewLabel(1)) {
		t.Errorf("Add mutated receiver: %v", l)
	}
	l3 := l2.remove(1)
	if !l3.Equal(NewLabel(2)) {
		t.Errorf("Remove = %v", l3)
	}
	if got := l.Add(InvalidTag); !got.Equal(l) {
		t.Errorf("Add(InvalidTag) = %v, want unchanged", got)
	}
}

func TestLabelString(t *testing.T) {
	if got := NewLabel().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
	if got := NewLabel(2, 1).String(); got != "{t1,t2}" {
		t.Errorf("String() = %q", got)
	}
}

func TestTagsReturnsCopy(t *testing.T) {
	l := NewLabel(1, 2)
	got := l.Tags()
	got[0] = 99
	if !l.Has(1) || l.Has(99) {
		t.Error("mutating Tags() result affected the label")
	}
	if NewLabel().Tags() != nil {
		t.Error("empty label Tags() should be nil")
	}
}

// --- Lattice laws, property-checked with testing/quick ---

func TestPropUnionCommutative(t *testing.T) {
	f := func(a, b Label) bool { return a.Union(b).Equal(b.Union(a)) }
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropUnionAssociative(t *testing.T) {
	f := func(a, b, c Label) bool {
		return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropUnionIdempotent(t *testing.T) {
	f := func(a Label) bool { return a.Union(a).Equal(a) }
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropMeetCommutative(t *testing.T) {
	f := func(a, b Label) bool { return a.Meet(b).Equal(b.Meet(a)) }
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropAbsorption(t *testing.T) {
	f := func(a, b Label) bool {
		return a.Union(a.Meet(b)).Equal(a) && a.Meet(a.Union(b)).Equal(a)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropSubsetPartialOrder(t *testing.T) {
	// Reflexive, antisymmetric, transitive.
	refl := func(a Label) bool { return a.SubsetOf(a) }
	if err := quick.Check(refl, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
	anti := func(a, b Label) bool {
		if a.SubsetOf(b) && b.SubsetOf(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(anti, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c Label) bool {
		if a.SubsetOf(b) && b.SubsetOf(c) {
			return a.SubsetOf(c)
		}
		return true
	}
	if err := quick.Check(trans, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropUnionIsLeastUpperBound(t *testing.T) {
	f := func(a, b Label) bool {
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropMinusDisjoint(t *testing.T) {
	f := func(a, b Label) bool {
		d := a.Minus(b)
		return d.Meet(b).IsEmpty() && d.SubsetOf(a)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropPartition(t *testing.T) {
	// a = (a−b) ∪ (a∩b)
	f := func(a, b Label) bool {
		return a.Minus(b).Union(a.Meet(b)).Equal(a)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

// TestSearchTags pins the branchless lower bound behind the short×long
// subset check against slices.BinarySearch, on every length up to 70 and
// on tags at the top of the 64-bit range, where a signed or truncated
// compare would break.
func TestSearchTags(t *testing.T) {
	check := func(b []Tag, x Tag) {
		t.Helper()
		if got, want := searchTags(b, x), lowerBoundTags(b, x); got != want {
			t.Fatalf("searchTags(%v, %v) = %d, want %d", b, x, got, want)
		}
	}
	for n := 0; n <= 70; n++ {
		b := make([]Tag, n)
		for i := range b {
			b[i] = Tag(2*i + 2)
		}
		for x := Tag(0); x <= Tag(2*n+3); x++ {
			check(b, x)
		}
	}
	top := []Tag{1, 5, 1 << 63, ^Tag(0) - 1, ^Tag(0)}
	for _, x := range []Tag{0, 1, 2, 5, 6, 1<<63 - 1, 1 << 63, ^Tag(0) - 2, ^Tag(0) - 1, ^Tag(0)} {
		check(top, x)
	}
}

func lowerBoundTags(b []Tag, x Tag) int {
	i, _ := slices.BinarySearch(b, x)
	return i
}
