package rt

import (
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// wideFixture is a thread holding the plus and minus capabilities of 48
// fresh tags, those tags as one label, and a forked student thread that
// holds only the first tag's capabilities: the GradeSheet shape of one
// principal per tag plus a column-wide label.
type wideFixture struct {
	main, student *Thread
	tags          []difc.Tag
	all           difc.Labels
}

func newWideFixture(tb testing.TB) wideFixture {
	tb.Helper()
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod))
	mod.InstallSystemIntegrity(k)
	shell, err := mod.Login(k, "user")
	if err != nil {
		tb.Fatal(err)
	}
	_, main, err := New(k, mod, shell)
	if err != nil {
		tb.Fatal(err)
	}
	f := wideFixture{main: main, tags: make([]difc.Tag, 48)}
	for i := range f.tags {
		if f.tags[i], err = main.CreateTag(); err != nil {
			tb.Fatal(err)
		}
	}
	f.all = difc.Labels{S: difc.NewLabel(f.tags...)}
	f.student, err = main.Fork([]kernel.Capability{{Tag: f.tags[0], Kind: difc.CapBoth}})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// labeledObject allocates an object labeled l, from inside a region with
// exactly those labels, and sets its field "f".
func labeledObject(tb testing.TB, th *Thread, l difc.Labels) *Object {
	tb.Helper()
	var o *Object
	err := th.Secure(l, difc.EmptyCapSet, func(r *Region) {
		o = r.Alloc(nil)
		r.Set(o, "f", 1)
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

// TestSecureRefusedAllocs pins that a refused 48-tag entry allocates its
// error value and nothing else: the rt wrapper, the *difc.ChangeError it
// unwraps to, and that error's 47-tag Missing set. In particular no
// label is rendered: String on the 48-tag label alone allocates more
// than the whole bound, which the test checks too.
func TestSecureRefusedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	f := newWideFixture(t)
	body := func(*Region) { t.Error("body ran") }
	const bound = 3
	got := testing.AllocsPerRun(100, func() {
		if f.student.Secure(f.all, difc.EmptyCapSet, body, nil) == nil {
			t.Fatal("student entered the 48-tag region")
		}
	})
	if got > bound {
		t.Errorf("refused 48-tag Secure allocates %v times, want at most %d", got, bound)
	}
	if s := testing.AllocsPerRun(10, func() { _ = f.all.S.String() }); s <= bound {
		t.Fatalf("rendering the label allocates only %v times: the bound proves nothing", s)
	}
}

// TestReadBarrierAllocs pins that read barriers inside a 48-tag region
// allocate nothing, whether the object's label is the region's own
// interned label or a 24-tag subset decided through the flow cache.
func TestReadBarrierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	f := newWideFixture(t)
	same := labeledObject(t, f.main, f.all)
	sub := labeledObject(t, f.main, difc.Labels{S: difc.NewLabel(f.tags[:24]...)})
	err := f.main.Secure(f.all, difc.EmptyCapSet, func(r *Region) {
		for name, o := range map[string]*Object{"48-tag": same, "24-tag": sub} {
			if got := testing.AllocsPerRun(100, func() { r.Get(o, "f") }); got != 0 {
				t.Errorf("read barrier on a %s object allocates %v times, want 0", name, got)
			}
		}
	}, func(_ *Region, e any) { t.Errorf("barrier refused: %v", e) })
	if err != nil {
		t.Fatal(err)
	}
}

var sink any

func BenchmarkSecureRefused48(b *testing.B) {
	f := newWideFixture(b)
	body := func(*Region) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f.student.Secure(f.all, difc.EmptyCapSet, body, nil)
	}
}

func BenchmarkSecureGranted1(b *testing.B) {
	f := newWideFixture(b)
	l := difc.Labels{S: difc.NewLabel(f.tags[0])}
	body := func(*Region) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.main.Secure(l, difc.EmptyCapSet, body, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBarrier48(b *testing.B) {
	f := newWideFixture(b)
	o := labeledObject(b, f.main, f.all)
	err := f.main.Secure(f.all, difc.EmptyCapSet, func(r *Region) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = r.Get(o, "f")
		}
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
}
