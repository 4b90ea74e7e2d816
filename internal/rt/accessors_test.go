package rt

import (
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

func TestRegionAccessors(t *testing.T) {
	vm, main := newVM(t)
	a, _ := main.CreateTag()
	i, _ := main.CreateTag()
	labels := difc.Labels{S: difc.NewLabel(a), I: difc.NewLabel(i)}
	main.Secure(labels, difc.EmptyCapSet, func(r *Region) {
		if r.thread != main {
			t.Error("region thread mismatch")
		}
		if !r.Labels().Equal(labels) {
			t.Errorf("Labels() = %v", r.Labels())
		}
	}, nil)
	if main.VM() != vm {
		t.Error("VM() mismatch")
	}
}

func TestRegionCreateFileLabeled(t *testing.T) {
	// An unlabeled region pre-creates a labeled file via the region API.
	_, main := newVM(t)
	a, _ := main.CreateTag()
	secret := difc.Labels{S: difc.NewLabel(a)}
	err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		fd, err := r.CreateFileLabeled("regioncal", 0o600, secret)
		if err != nil {
			t.Errorf("CreateFileLabeled: %v", err)
			return
		}
		r.CloseFile(fd)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The file exists and is protected.
	if _, err := main.vm.k.Open(main.Task(), "regioncal", kernel.ORead); err == nil {
		t.Error("labeled file readable by unlabeled task")
	}
}

func TestRawIndexAccessors(t *testing.T) {
	arr := NewArray(3)
	arr.RawSetIndex(1, "v")
	if arr.RawIndex(1) != "v" {
		t.Error("raw index accessors broken")
	}
}

// TestRawAccessorsRefuseLabeled pins the raw-accessor leak shut: the
// unchecked accessors raise a *Violation on a labeled object, outside a
// region and inside one, and neither reveal nor change its contents.
func TestRawAccessorsRefuseLabeled(t *testing.T) {
	_, main := newVM(t)
	tag, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}
	var obj, arr *Object
	err = main.Secure(secret, difc.EmptyCapSet, func(r *Region) {
		obj = r.Alloc(nil)
		r.Set(obj, "pw", "hunter2")
		arr = r.AllocArray(2, nil)
		r.SetIndex(arr, 0, "hunter2")
	}, func(_ *Region, e any) { t.Fatalf("region refused: %v", e) })
	if err != nil {
		t.Fatal(err)
	}
	refused := func(where, op string, f func() any) {
		t.Helper()
		var got any
		var v *Violation
		func() {
			defer func() {
				e := recover()
				v, _ = e.(*Violation)
			}()
			got = f()
		}()
		if v == nil || v.Op != op {
			t.Errorf("%s: %s on a labeled object returned %v, want a *Violation", where, op, got)
		}
	}
	try := func(where string) {
		t.Helper()
		refused(where, "rawGet", func() any { return obj.RawGet("pw") })
		refused(where, "rawSet", func() any { obj.RawSet("pw", "public"); return nil })
		refused(where, "rawIndex", func() any { return arr.RawIndex(0) })
		refused(where, "rawSetIndex", func() any { arr.RawSetIndex(0, "public"); return nil })
	}
	try("outside a region")
	err = main.Secure(secret, difc.EmptyCapSet, func(r *Region) {
		try("inside a region")
		if got := r.Get(obj, "pw"); got != "hunter2" {
			t.Errorf("refused RawSet changed the field: %v", got)
		}
		if got := r.Index(arr, 0); got != "hunter2" {
			t.Errorf("refused RawSetIndex changed the element: %v", got)
		}
	}, func(_ *Region, e any) { t.Fatalf("region refused: %v", e) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestDynamicWriteBarrierOutside(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	var labeled *Object
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		labeled = r.Alloc(nil)
	}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dynamic write barrier let labeled write through outside region")
			}
		}()
		main.Set(labeled, "f", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dynamic index write let labeled write through")
			}
		}()
		arr := nilSafeLabeledArray(main, a)
		main.SetIndex(arr, 0, 1)
	}()
}

func nilSafeLabeledArray(main *Thread, tag difc.Tag) *Object {
	var arr *Object
	main.Secure(difc.Labels{S: difc.NewLabel(tag)}, difc.EmptyCapSet, func(r *Region) {
		arr = r.AllocArray(2, nil)
	}, nil)
	return arr
}

func TestThreadExit(t *testing.T) {
	_, main := newVM(t)
	child, err := main.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	child.Exit()
	if !child.Task().Exited() {
		t.Error("exited thread's task still live")
	}
}

func TestGrantCapability(t *testing.T) {
	_, main := newVM(t)
	tag := difc.Tag(777)
	main.GrantCapability(tag, difc.CapPlus)
	if !main.caps.Has(tag, difc.CapPlus) {
		t.Error("granted capability missing")
	}
	if err := main.Secure(difc.Labels{S: difc.NewLabel(tag)}, difc.EmptyCapSet, func(r *Region) {}, nil); err != nil {
		t.Errorf("region entry with granted capability: %v", err)
	}
}

func TestAuditEventStrings(t *testing.T) {
	events := []Event{
		{Kind: EvRegionEnter, Thread: 1},
		{Kind: EvCopyAndLabel, Thread: 1},
		{Kind: EvCapabilityGained, Thread: 1, Tag: 3, Cap: difc.CapPlus},
		{Kind: EvViolation, Thread: 1, Err: errDummy{}},
	}
	for _, e := range events {
		if s := e.String(); !strings.Contains(s, "tid 1") {
			t.Errorf("event String = %q", s)
		}
	}
}

type errDummy struct{}

func (errDummy) Error() string { return "dummy" }

func TestAllocArrayExplicitLabels(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()
	// Legal: array labeled above the region with a plus capability.
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet.Grant(b, difc.CapPlus), func(r *Region) {
		arr := r.AllocArray(2, &difc.Labels{S: difc.NewLabel(a, b)})
		if !arr.Labels().S.Equal(difc.NewLabel(a, b)) {
			t.Errorf("array labels = %v", arr.Labels())
		}
	}, func(r *Region, e any) { t.Errorf("unexpected violation: %v", e) })
	// Illegal: array below the region's secrecy.
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.AllocArray(2, &difc.Labels{})
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("array alloc below region secrecy succeeded")
	}
}
