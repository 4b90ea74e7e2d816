package difc

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanFlowSecrecy(t *testing.T) {
	a, b := Tag(1), Tag(2)
	cases := []struct {
		name     string
		src, dst Labels
		want     bool
	}{
		{"unlabeled to unlabeled", Unlabeled, Unlabeled, true},
		{"unlabeled to secret", Unlabeled, Labels{S: NewLabel(a)}, true},
		{"secret to unlabeled (leak)", Labels{S: NewLabel(a)}, Unlabeled, false},
		{"secret to same secret", Labels{S: NewLabel(a)}, Labels{S: NewLabel(a)}, true},
		{"secret to more secret", Labels{S: NewLabel(a)}, Labels{S: NewLabel(a, b)}, true},
		{"two secrets to one (leak)", Labels{S: NewLabel(a, b)}, Labels{S: NewLabel(a)}, false},
		{"disjoint secrets", Labels{S: NewLabel(a)}, Labels{S: NewLabel(b)}, false},
	}
	for _, c := range cases {
		if got := c.src.CanFlowTo(c.dst); got != c.want {
			t.Errorf("%s: CanFlowTo = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCanFlowIntegrity(t *testing.T) {
	i := Tag(7)
	high := Labels{I: NewLabel(i)}
	cases := []struct {
		name     string
		src, dst Labels
		want     bool
	}{
		{"high to high", high, high, true},
		{"high to low", high, Unlabeled, true},
		{"low to high (corruption)", Unlabeled, high, false},
	}
	for _, c := range cases {
		if got := c.src.CanFlowTo(c.dst); got != c.want {
			t.Errorf("%s: CanFlowTo = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCheckFlowErrors(t *testing.T) {
	a := Tag(1)
	err := CheckFlow("write", Labels{S: NewLabel(a)}, Unlabeled)
	if err == nil {
		t.Fatal("expected secrecy violation")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("error type %T, want *FlowError", err)
	}
	if fe.Rule != "secrecy" || fe.Op != "write" {
		t.Errorf("FlowError = %+v", fe)
	}
	if !strings.Contains(fe.Error(), "secrecy") {
		t.Errorf("Error() = %q", fe.Error())
	}

	err = CheckFlow("read", Unlabeled, Labels{I: NewLabel(a)})
	if !errors.As(err, &fe) || fe.Rule != "integrity" {
		t.Errorf("want integrity violation, got %v", err)
	}

	if err := CheckFlow("read", Unlabeled, Unlabeled); err != nil {
		t.Errorf("legal flow rejected: %v", err)
	}
}

func TestCanChange(t *testing.T) {
	a, b := Tag(1), Tag(2)
	caps := EmptyCapSet.Grant(a, CapBoth).Grant(b, CapPlus)
	cases := []struct {
		name     string
		from, to Label
		want     bool
	}{
		{"add with plus", NewLabel(), NewLabel(a), true},
		{"drop with minus", NewLabel(a), NewLabel(), true},
		{"add b with plus only", NewLabel(), NewLabel(b), true},
		{"drop b without minus", NewLabel(b), NewLabel(), false},
		{"swap a for b", NewLabel(a), NewLabel(b), true},
		{"swap b for a (needs b-)", NewLabel(b), NewLabel(a), false},
		{"no change always legal", NewLabel(b), NewLabel(b), true},
	}
	for _, c := range cases {
		if got := CanChange(c.from, c.to, caps); got != c.want {
			t.Errorf("%s: CanChange(%v, %v) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}
}

func TestCanChangeNoCapabilities(t *testing.T) {
	f := func(l Label) bool { return CanChange(l, l, EmptyCapSet) }
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error("identity change must always be legal:", err)
	}
}

func TestCanChangeLabels(t *testing.T) {
	s, i := Tag(1), Tag(2)
	caps := EmptyCapSet.Grant(s, CapPlus).Grant(i, CapPlus)
	from := Unlabeled
	to := Labels{S: NewLabel(s), I: NewLabel(i)}
	if !CanChangeLabels(from, to, caps) {
		t.Error("raise with plus caps should be legal")
	}
	if CanChangeLabels(to, from, caps) {
		t.Error("drop without minus caps should be illegal")
	}
}

func TestCanEnterRegion(t *testing.T) {
	a, b, i := Tag(1), Tag(2), Tag(3)
	// Thread: unlabeled, holds a+, a-, b+ and i+ (the Figure 4 thread).
	pc := EmptyCapSet.Grant(a, CapBoth).Grant(b, CapPlus).Grant(i, CapPlus)
	p := Unlabeled

	// Region {S(a,b), I(i), C(a-)} — legal per Figure 4.
	r := Labels{S: NewLabel(a, b), I: NewLabel(i)}
	rc := EmptyCapSet.Grant(a, CapMinus)
	if CheckEnterRegion(&p, &pc, &r, &rc) != nil {
		t.Error("Figure 4 region entry rejected")
	}

	// Region asking for a capability the thread lacks (b-).
	rc2 := EmptyCapSet.Grant(b, CapMinus)
	if CheckEnterRegion(&p, &pc, &r, &rc2) == nil {
		t.Error("region got capability thread lacks")
	}

	// Region asking for a secrecy tag the thread cannot add.
	r2 := Labels{S: NewLabel(Tag(99))}
	if CheckEnterRegion(&p, &pc, &r2, &EmptyCapSet) == nil {
		t.Error("region got label thread cannot add")
	}

	// A thread already tainted with the tag can enter without the plus cap.
	tainted := Labels{S: NewLabel(Tag(99))}
	if CheckEnterRegion(&tainted, &EmptyCapSet, &Labels{S: NewLabel(Tag(99))}, &EmptyCapSet) != nil {
		t.Error("tainted thread should enter region with its own label")
	}
}

func TestPropEnterRegionSubsetCaps(t *testing.T) {
	// Rule (2): any region whose capability set is not a subset of the
	// thread's must be rejected.
	f := func(pc, rc CapSet) bool {
		if CheckEnterRegion(&Unlabeled, &pc, &Unlabeled, &rc) == nil {
			return rc.SubsetOf(pc)
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestPropFlowTransitive(t *testing.T) {
	// If a→b and b→c are legal with no label changes, a→c is legal.
	f := func(a, b, c Labels) bool {
		if a.CanFlowTo(b) && b.CanFlowTo(c) {
			return a.CanFlowTo(c)
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t, 500)); err != nil {
		t.Error(err)
	}
}

// Generate for Labels composes the Label generator.
func (Labels) Generate(r *rand.Rand, size int) reflect.Value {
	s := Label{}.Generate(r, size).Interface().(Label)
	i := Label{}.Generate(r, size).Interface().(Label)
	return reflect.ValueOf(Labels{S: s, I: i})
}

func TestPropCanChangeSound(t *testing.T) {
	// Whatever CanChange allows must decompose into adds covered by Cp+ and
	// drops covered by Cp-.
	f := func(from, to Label, caps CapSet) bool {
		if !CanChange(from, to, caps) {
			return true
		}
		for _, tg := range to.Minus(from).Tags() {
			if !caps.Has(tg, CapPlus) {
				return false
			}
		}
		for _, tg := range from.Minus(to).Tags() {
			if !caps.Has(tg, CapMinus) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t, 100)); err != nil {
		t.Error(err)
	}
}

func TestLabelsString(t *testing.T) {
	l := Labels{S: NewLabel(1), I: NewLabel(2)}
	if got := l.String(); got != "{S{t1},I{t2}}" {
		t.Errorf("String() = %q", got)
	}
}
