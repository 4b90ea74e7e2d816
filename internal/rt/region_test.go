package rt

import (
	"errors"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// inactiveViolation reports whether e is the *Violation a Region handle
// raises when it acts outside its own region.
func inactiveViolation(e any) bool {
	v, ok := e.(*Violation)
	return ok && errors.Is(v, ErrRegionInactive)
}

// TestRegionHandleFailsClosed pins the handle-validity rule: a Region
// acts only while it is its thread's innermost active region. Both cases
// leak a secret when a handle acts with labels the thread no longer
// holds.
func TestRegionHandleFailsClosed(t *testing.T) {
	t.Run("outer handle inside nested region", func(t *testing.T) {
		_, main := newVM(t)
		a, err := main.CreateTag()
		if err != nil {
			t.Fatal(err)
		}
		tainted := difc.Labels{S: difc.NewLabel(a)}
		secret := labeledObject(t, main, tainted)
		public := NewObject()
		var caught any
		// The outer region is unlabeled but may add a, so the nested
		// region can raise to {S(a)}.
		err = main.Secure(difc.Labels{}, difc.EmptyCapSet.Grant(a, difc.CapPlus), func(outer *Region) {
			err := main.Secure(tainted, difc.EmptyCapSet, func(inner *Region) {
				v := inner.Get(secret, "f")
				// The outer handle's labels are empty, so its write
				// barrier would admit the unlabeled object.
				outer.Set(public, "leak", v)
			}, func(_ *Region, e any) { caught = e })
			if err != nil {
				t.Errorf("nested entry: %v", err)
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := public.RawGet("leak"); v != nil {
			t.Errorf("a-tainted value %v reached an unlabeled object", v)
		}
		if !inactiveViolation(caught) {
			t.Errorf("nested catch got %v, want a Violation wrapping ErrRegionInactive", caught)
		}
	})

	t.Run("handle kept after Secure returns", func(t *testing.T) {
		_, main := newVM(t)
		a, err := main.CreateTag()
		if err != nil {
			t.Fatal(err)
		}
		tainted := difc.Labels{S: difc.NewLabel(a)}
		secret := labeledObject(t, main, tainted)
		var kept *Region
		if err := main.Secure(tainted, difc.EmptyCapSet, func(r *Region) { kept = r }, nil); err != nil {
			t.Fatal(err)
		}
		var got any
		e := func() (e any) {
			defer func() { e = recover() }()
			got = kept.Get(secret, "f")
			return nil
		}()
		if got != nil {
			t.Errorf("read %v from a secret object outside any region", got)
		}
		if !inactiveViolation(e) {
			t.Errorf("kept handle raised %v, want a Violation wrapping ErrRegionInactive", e)
		}
	})
}

// TestRegionHandleActingMethods checks that every acting Region method
// refuses a handle whose region has exited.
func TestRegionHandleActingMethods(t *testing.T) {
	_, main := newVM(t)
	o := NewObject()
	arr := NewArray(1)
	var kept *Region
	if err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) { kept = r }, nil); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Get":                    func() { kept.Get(o, "f") },
		"Set":                    func() { kept.Set(o, "f", 1) },
		"Index":                  func() { kept.Index(arr, 0) },
		"SetIndex":               func() { kept.SetIndex(arr, 0, 1) },
		"Alloc":                  func() { kept.Alloc(nil) },
		"AllocArray":             func() { kept.AllocArray(1, nil) },
		"CopyAndLabel":           func() { kept.CopyAndLabel(o, difc.Labels{}) },
		"GetStatic":              func() { kept.GetStatic("s") },
		"SetStatic":              func() { kept.SetStatic("s", 1) },
		"CreateAndAddCapability": func() { _, _ = kept.CreateAndAddCapability() },
		"RemoveCapability":       func() { _ = kept.RemoveCapability(1, difc.CapMinus, false) },
		"OpenFile":               func() { _, _ = kept.OpenFile("f", kernel.ORead) },
		"CreateFileLabeled":      func() { _, _ = kept.CreateFileLabeled("f", 0o600, difc.Labels{}) },
		"ReadFile":               func() { _, _ = kept.ReadFile(0, nil) },
		"WriteFile":              func() { _, _ = kept.WriteFile(0, nil) },
		"WriteFileVec":           func() { _, _ = kept.WriteFileVec(0, nil) },
		"CloseFile":              func() { _ = kept.CloseFile(0) },
		"Send":                   func() { _, _ = kept.Send(0, nil) },
		"Recv":                   func() { _, _ = kept.Recv(0, nil) },
		"Socketpair":             func() { _, _, _ = kept.Socketpair() },
	} {
		e := func() (e any) {
			defer func() { e = recover() }()
			f()
			return nil
		}()
		if !inactiveViolation(e) {
			t.Errorf("%s on an exited region's handle: got %v, want a Violation wrapping ErrRegionInactive", name, e)
		}
	}
}

// TestSecureGrantedAllocs pins that a granted entry allocates nothing:
// the Region is the thread's reusable frame for its depth, and the entry
// check reads its operands in place.
func TestSecureGrantedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	f := newWideFixture(t)
	one := difc.Labels{S: difc.NewLabel(f.tags[0])}
	minus := difc.NewCapSet(difc.EmptyLabel, f.all.S)
	body := func(*Region) {}
	enter := func(th *Thread, l difc.Labels, caps difc.CapSet) {
		if err := th.Secure(l, caps, body, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"granted 1-tag entry", func() { enter(f.main, one, difc.EmptyCapSet) }},
		{"granted 48-tag entry", func() { enter(f.main, f.all, difc.EmptyCapSet) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, got)
		}
	}
	err := f.main.Secure(f.all, minus, func(*Region) {
		// The nested region declassifies to empty labels with the minus
		// capabilities the outer region carries.
		if got := testing.AllocsPerRun(100, func() { enter(f.main, difc.Labels{}, minus) }); got != 0 {
			t.Errorf("nested entry allocates %v times, want 0", got)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegionClockObservation pins the region clock's telemetry feed: one
// LayerRT latency observation per outermost region while the recorder is
// active, and none while it is off. Nested regions read no clock.
func TestRegionClockObservation(t *testing.T) {
	rec := telemetry.NewRecorder()
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	shell, err := mod.Login(k, "user")
	if err != nil {
		t.Fatal(err)
	}
	vm, main, err := New(k, mod, shell)
	if err != nil {
		t.Fatal(err)
	}
	nested := func(*Region) {
		if err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(*Region) {}, nil); err != nil {
			t.Error(err)
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := main.Secure(difc.Labels{}, difc.EmptyCapSet, nested, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	observed := func() (n uint64) {
		for _, b := range rec.MetricsSnapshot().LayerLatency[telemetry.LayerRT.String()] {
			n += b.Count
		}
		return n
	}

	run(5)
	if got := observed(); got != 0 {
		t.Errorf("recorder off: %d LayerRT observations, want 0", got)
	}
	if vm.Stats().RegionNanos.Load() <= 0 {
		t.Error("no region time recorded with telemetry off")
	}
	rec.SetLevel(telemetry.LevelDeny)
	run(7)
	if got := observed(); got != 7 {
		t.Errorf("recorder active: %d LayerRT observations for 7 outermost regions, want 7", got)
	}
}

// BenchmarkSecureNested is a declassifying entry nested in a 48-tag
// region: the GradeSheet professor's average.
func BenchmarkSecureNested(b *testing.B) {
	f := newWideFixture(b)
	minus := difc.NewCapSet(difc.EmptyLabel, f.all.S)
	body := func(*Region) {}
	err := f.main.Secure(f.all, minus, func(*Region) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.main.Secure(difc.Labels{}, minus, body, nil); err != nil {
				b.Fatal(err)
			}
		}
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
}
