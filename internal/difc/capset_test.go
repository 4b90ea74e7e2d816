package difc

import (
	"testing"
	"testing/quick"
)

func TestCapSetGrantDrop(t *testing.T) {
	c := EmptyCapSet.Grant(1, CapBoth)
	if !c.Has(1, CapPlus) || !c.Has(1, CapMinus) {
		t.Error("Grant(CapBoth) should grant both halves")
	}
	c2 := c.Drop(1, CapMinus)
	if !c2.Has(1, CapPlus) || c2.Has(1, CapMinus) {
		t.Error("Drop(CapMinus) should leave plus intact")
	}
	if !c.Has(1, CapMinus) {
		t.Error("Drop mutated receiver")
	}
	if c2.Has(1, CapPlus) != true || c2.Has(1, CapBoth) != false {
		t.Error("Has kind queries wrong")
	}
	if c2.Has(1, CapKind(0)) {
		t.Error("Has with zero kind should be false")
	}
}

func TestCapSetUnion(t *testing.T) {
	a := EmptyCapSet.Grant(1, CapPlus).Grant(2, CapMinus)
	b := EmptyCapSet.Grant(1, CapBoth)
	u := a.Union(b)
	if !u.Has(1, CapBoth) || !u.Has(2, CapMinus) || u.Has(2, CapPlus) {
		t.Errorf("Union = %v", u)
	}
}

func TestCapSetSubsetOf(t *testing.T) {
	a := EmptyCapSet.Grant(1, CapPlus)
	b := EmptyCapSet.Grant(1, CapBoth).Grant(2, CapMinus)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !EmptyCapSet.SubsetOf(a) {
		t.Error("empty set is subset of everything")
	}
}

func TestCapSetString(t *testing.T) {
	c := EmptyCapSet.Grant(1, CapBoth).Grant(2, CapPlus).Grant(3, CapMinus)
	if got := c.String(); got != "C(t1+-,t2+,t3-)" {
		t.Errorf("String() = %q", got)
	}
	if got := EmptyCapSet.String(); got != "C()" {
		t.Errorf("empty String() = %q", got)
	}
}

// TestCapSetIsEmpty: labels are canonical, so the empty capability set
// is the zero CapSet and == compares capability sets.
func TestCapSetIsEmpty(t *testing.T) {
	if EmptyCapSet != (CapSet{}) || !EmptyCapSet.Plus().IsEmpty() || !EmptyCapSet.Minus().IsEmpty() {
		t.Error("EmptyCapSet not empty")
	}
	if g := EmptyCapSet.Grant(1, CapPlus); g == EmptyCapSet || g.Plus().IsEmpty() {
		t.Error("granted set reported empty")
	}
}

func TestCapKindString(t *testing.T) {
	cases := map[CapKind]string{CapPlus: "+", CapMinus: "-", CapBoth: "+-", CapKind(0): "?"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestPropCapSetUnionMonotone(t *testing.T) {
	f := func(a, b CapSet) bool {
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropGrantThenHas(t *testing.T) {
	f := func(c CapSet) bool {
		g := c.Grant(42, CapBoth)
		return g.Has(42, CapPlus) && g.Has(42, CapMinus)
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}
