package rt

import (
	"errors"
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// newVM boots a kernel + module + VM with a main thread whose login shell
// starts in /tmp.
func newVM(t *testing.T) (*VM, *Thread) {
	t.Helper()
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod))
	mod.InstallSystemIntegrity(k)
	shell, err := mod.Login(k, "user")
	if err != nil {
		t.Fatal(err)
	}
	vm, main, err := New(k, mod, shell)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(main.Task(), "/tmp"); err != nil {
		t.Fatal(err)
	}
	return vm, main
}

func TestThreadStartsUnlabeled(t *testing.T) {
	_, main := newVM(t)
	if !main.Labels().IsEmpty() {
		t.Errorf("fresh thread labels = %v", main.Labels())
	}
	if main.Region() != nil {
		t.Error("fresh thread in a region")
	}
}

func TestSecureEntryRules(t *testing.T) {
	_, main := newVM(t)
	a, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	// Entering with a held capability works.
	ran := false
	err = main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		ran = true
		if !r.Labels().S.Equal(difc.NewLabel(a)) {
			t.Errorf("region secrecy = %v", r.Labels().S)
		}
	}, nil)
	if err != nil || !ran {
		t.Fatalf("Secure = %v, ran = %v", err, ran)
	}
	// Labels restored after exit.
	if !main.Labels().IsEmpty() {
		t.Errorf("labels after region = %v", main.Labels())
	}
	// Entering with an unheld tag fails.
	err = main.Secure(difc.Labels{S: difc.NewLabel(difc.Tag(9999))}, difc.EmptyCapSet, func(r *Region) {
		t.Error("body ran despite entry failure")
	}, nil)
	if err == nil {
		t.Error("entry with unheld tag succeeded")
	}
	// Asking for a capability the thread lacks fails (rule 2).
	err = main.Secure(difc.Labels{}, difc.EmptyCapSet.Grant(difc.Tag(9999), difc.CapMinus), func(r *Region) {
		t.Error("body ran")
	}, nil)
	if err == nil {
		t.Error("entry with unheld capability succeeded")
	}
}

func TestNestedRegions(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()
	outer := difc.Labels{S: difc.NewLabel(a, b)}
	inner := difc.Labels{S: difc.NewLabel(b)}
	caps := difc.EmptyCapSet.Grant(a, difc.CapMinus)
	err := main.Secure(outer, caps, func(r *Region) {
		if !main.Labels().Equal(outer) {
			t.Errorf("outer labels = %v", main.Labels())
		}
		// Nested region drops tag a using the region's a- capability.
		err := main.Secure(inner, caps, func(r2 *Region) {
			if !main.Labels().Equal(inner) {
				t.Errorf("inner labels = %v", main.Labels())
			}
		}, nil)
		if err != nil {
			t.Errorf("nested entry = %v", err)
		}
		if !main.Labels().Equal(outer) {
			t.Errorf("labels after nested exit = %v", main.Labels())
		}
		// A nested region cannot ADD a label the thread cannot reach:
		// inner region with an unknown tag.
		err = main.Secure(difc.Labels{S: difc.NewLabel(difc.Tag(4242))}, difc.EmptyCapSet, func(*Region) {}, nil)
		if err == nil {
			t.Error("nested entry with unreachable label succeeded")
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedRegionCannotDropWithoutCapability(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	// Permanently discard a-.
	if err := main.DropCapability(a, difc.CapMinus); err != nil {
		t.Fatal(err)
	}
	outer := difc.Labels{S: difc.NewLabel(a)}
	err := main.Secure(outer, difc.EmptyCapSet, func(r *Region) {
		// Thread is tainted with a and holds no a-: entering an inner
		// region without a must fail (it would declassify).
		err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(*Region) {
			t.Error("declassifying nested entry ran")
		}, nil)
		if err == nil {
			t.Error("nested region dropped label without capability")
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// But region exit still restores the (empty) thread labels, via tcb.
	if !main.Labels().IsEmpty() {
		t.Errorf("labels after exit = %v", main.Labels())
	}
}

func TestLabeledObjectAccess(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	secret := difc.Labels{S: difc.NewLabel(a)}
	var obj *Object
	err := main.Secure(secret, difc.EmptyCapSet, func(r *Region) {
		obj = r.Alloc(nil) // takes region labels
		r.Set(obj, "marks", 42)
		if got := r.Get(obj, "marks"); got != 42 {
			t.Errorf("Get = %v", got)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.labeled || !obj.Labels().Equal(secret) {
		t.Errorf("obj labels = %v", obj.Labels())
	}
	// Outside any region, the dynamic barrier rejects the labeled object.
	func() {
		defer func() {
			v, ok := recover().(*Violation)
			if !ok {
				t.Error("no violation for outside-region access")
			} else if v.Op != "read" {
				t.Errorf("violation op = %s", v.Op)
			}
		}()
		main.Get(obj, "marks")
	}()
}

func TestReadBarrierRejectsHigherSecrecy(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()
	var high *Object
	main.Secure(difc.Labels{S: difc.NewLabel(a, b)}, difc.EmptyCapSet, func(r *Region) {
		high = r.Alloc(nil)
		r.Set(high, "x", 1)
	}, nil)
	// A region with only {a} must not read an {a,b} object.
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.Get(high, "x")
		t.Error("read of higher-secrecy object succeeded")
	}, func(r *Region, e any) {
		if v, ok := e.(*Violation); ok && strings.Contains(v.Error(), "secrecy") {
			caught = true
		}
	})
	if !caught {
		t.Error("violation not delivered to catch block")
	}
}

func TestWriteBarrierRejectsDowngrade(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	low := NewObject() // unlabeled
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.Set(low, "leak", "secret")
		t.Error("write to unlabeled object succeeded in tainted region")
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("no violation for write down")
	}
	if low.RawGet("leak") != nil {
		t.Error("leak value was written")
	}
}

func TestIntegrityBarriers(t *testing.T) {
	_, main := newVM(t)
	i, _ := main.CreateTag()
	high := difc.Labels{I: difc.NewLabel(i)}
	var endorsed *Object
	main.Secure(high, difc.EmptyCapSet, func(r *Region) {
		endorsed = r.Alloc(nil)
		r.Set(endorsed, "config", "trusted")
	}, nil)

	// A no-integrity region may read the endorsed object but not write it.
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		if got := r.Get(endorsed, "config"); got != "trusted" {
			t.Errorf("read endorsed = %v", got)
		}
	}, nil)
	caught := false
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		r.Set(endorsed, "config", "tampered")
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("low-integrity write to endorsed object succeeded")
	}

	// A high-integrity region may not read unlabeled objects.
	low := NewObject()
	low.RawSet("x", 1)
	caught = false
	main.Secure(high, difc.EmptyCapSet, func(r *Region) {
		r.Get(low, "x")
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("high-integrity read of low object succeeded (no read down violated)")
	}
}

func TestAllocWithExplicitLabels(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet.Grant(b, difc.CapPlus), func(r *Region) {
		// More secret than the region: fine with b+ capability.
		obj := r.Alloc(&difc.Labels{S: difc.NewLabel(a, b)})
		if !obj.Labels().S.Equal(difc.NewLabel(a, b)) {
			t.Errorf("labels = %v", obj.Labels())
		}
	}, func(r *Region, e any) {
		t.Errorf("unexpected violation: %v", e)
	})
	// Less secret than the region: rejected (would launder the taint).
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.Alloc(&difc.Labels{})
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("alloc below region secrecy succeeded")
	}
}

// TestFigure7 encodes the Figure 7 example: sum the marks of two students
// with different secrecy tags, then declassify the sum in a nested region.
func TestFigure7(t *testing.T) {
	_, main := newVM(t)
	s1, _ := main.CreateTag()
	s2, _ := main.CreateTag()

	var student1, student2 *Object
	main.Secure(difc.Labels{S: difc.NewLabel(s1)}, difc.EmptyCapSet, func(r *Region) {
		student1 = r.Alloc(nil)
		r.Set(student1, "marks", 40)
	}, nil)
	main.Secure(difc.Labels{S: difc.NewLabel(s2)}, difc.EmptyCapSet, func(r *Region) {
		student2 = r.Alloc(nil)
		r.Set(student2, "marks", 35)
	}, nil)

	// credentials = {S(s1,s2), I(), C(s1-, s2-)}
	credsLabels := difc.Labels{S: difc.NewLabel(s1, s2)}
	credsCaps := difc.EmptyCapSet.Grant(s1, difc.CapMinus).Grant(s2, difc.CapMinus)
	ret := NewObject()
	err := main.Secure(credsLabels, credsCaps, func(r *Region) {
		m1 := r.Get(student1, "marks").(int)
		m2 := r.Get(student2, "marks").(int)
		obj := r.Alloc(nil)
		r.Set(obj, "sum", m1+m2)
		// credentialsNew = {S(), I(), C(s1-, s2-)}
		err := main.Secure(difc.Labels{}, credsCaps, func(r2 *Region) {
			pub := r2.CopyAndLabel(obj, difc.Labels{})
			ret.RawSet("val", pub.rawGet("sum"))
		}, nil)
		if err != nil {
			t.Errorf("nested declassification region: %v", err)
		}
	}, func(r *Region, e any) {
		t.Errorf("unexpected violation: %v", e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ret.RawGet("val"); got != 75 {
		t.Errorf("declassified sum = %v, want 75", got)
	}
}

func TestCopyAndLabelRequiresCapability(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	b, _ := main.CreateTag()
	var obj *Object
	ab := difc.Labels{S: difc.NewLabel(a, b)}
	main.Secure(ab, difc.EmptyCapSet, func(r *Region) {
		obj = r.Alloc(nil)
		r.Set(obj, "v", "x")
	}, nil)
	// Figure 4's L5 counterexample: dropping both a and b with only a-.
	caught := false
	main.Secure(ab, difc.EmptyCapSet.Grant(a, difc.CapMinus), func(r *Region) {
		r.CopyAndLabel(obj, difc.Labels{})
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("copyAndLabel dropped b without b-")
	}
	// Dropping only a works.
	main.Secure(ab, difc.EmptyCapSet.Grant(a, difc.CapMinus), func(r *Region) {
		cp := r.CopyAndLabel(obj, difc.Labels{S: difc.NewLabel(b)})
		if !cp.Labels().S.Equal(difc.NewLabel(b)) {
			t.Errorf("copy labels = %v", cp.Labels())
		}
		if cp.rawGet("v") != "x" {
			t.Error("copy lost field value")
		}
	}, func(r *Region, e any) {
		t.Errorf("unexpected violation: %v", e)
	})
}

// TestImplicitFlowFigure5 encodes Figure 5: the attempted assignment to
// low-secrecy L inside a high-secrecy region raises a violation, the catch
// block restores the invariant, and no information about H escapes.
func TestImplicitFlowFigure5(t *testing.T) {
	_, main := newVM(t)
	h, _ := main.CreateTag()
	hLabels := difc.Labels{S: difc.NewLabel(h)}

	run := func(hValue bool) bool {
		// H is a labeled object; L is unlabeled.
		var H *Object
		main.Secure(hLabels, difc.EmptyCapSet, func(r *Region) {
			H = r.Alloc(nil)
			r.Set(H, "v", hValue)
		}, nil)
		L := NewObject()
		L.RawSet("v", false)
		x, y := 0, 0
		main.Secure(hLabels, difc.EmptyCapSet, func(r *Region) {
			x++
			if r.Get(H, "v").(bool) {
				r.Set(L, "v", true) // violation: write down
			}
			y = 2 * x
		}, func(r *Region, e any) {
			y = 2 * x // restore invariant
		})
		if y != 2*x {
			t.Errorf("invariant broken: y=%d x=%d", y, x)
		}
		return L.RawGet("v").(bool)
	}

	// Whether H is true or false, L stays false: no implicit flow.
	if run(true) != run(false) {
		t.Error("L differs between H=true and H=false: implicit flow leaked")
	}
	if run(true) != false {
		t.Error("L was assigned")
	}
}

// TestCatchRunsWithRegionLabels verifies the catch block executes with the
// region's labels and the capability set at exception time.
func TestCatchRunsWithRegionLabels(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	l := difc.Labels{S: difc.NewLabel(a)}
	var inCatch difc.Labels
	main.Secure(l, difc.EmptyCapSet, func(r *Region) {
		panic("boom")
	}, func(r *Region, e any) {
		inCatch = main.Labels()
		if e != "boom" {
			t.Errorf("catch payload = %v", e)
		}
	})
	if !inCatch.Equal(l) {
		t.Errorf("catch labels = %v, want %v", inCatch, l)
	}
	if !main.Labels().IsEmpty() {
		t.Errorf("labels after catch = %v", main.Labels())
	}
}

func TestCatchPanicsAreSuppressed(t *testing.T) {
	_, main := newVM(t)
	err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		panic("first")
	}, func(r *Region, e any) {
		panic("second")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reaching here is the test: both panics suppressed, fall-through.
}

func TestPanicWithoutCatchSuppressed(t *testing.T) {
	_, main := newVM(t)
	err := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		panic("unhandled")
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaticsRestrictions(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	main.SetStatic("g", 7)
	if got := main.GetStatic("g"); got != 7 {
		t.Errorf("GetStatic = %v", got)
	}
	// Secrecy region cannot write statics.
	caught := false
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.SetStatic("g", 8)
	}, func(r *Region, e any) { caught = true })
	if !caught || main.GetStatic("g") != 7 {
		t.Error("secrecy region wrote a static")
	}
	// Secrecy region may read statics.
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		if got := r.GetStatic("g"); got != 7 {
			t.Errorf("static read in region = %v", got)
		}
	}, nil)
	// Integrity region cannot read statics but may write them.
	caught = false
	main.Secure(difc.Labels{I: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.GetStatic("g")
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("integrity region read a static")
	}
	main.Secure(difc.Labels{I: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.SetStatic("g", 9)
	}, func(r *Region, e any) {
		t.Errorf("integrity region static write: %v", e)
	})
	if main.GetStatic("g") != 9 {
		t.Error("integrity region static write lost")
	}
}

func TestRegionCapabilityManagement(t *testing.T) {
	_, main := newVM(t)
	var gained difc.Tag
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		tag, err := r.CreateAndAddCapability()
		if err != nil {
			t.Fatal(err)
		}
		gained = tag
		if !r.caps.Has(tag, difc.CapBoth) {
			t.Error("region missing fresh capability")
		}
	}, nil)
	// Retained after exit (§4.4 default).
	if !main.caps.Has(gained, difc.CapBoth) {
		t.Error("capability not retained after region exit")
	}

	// Scoped drop: gone inside, back outside.
	main.Secure(difc.Labels{}, main.caps, func(r *Region) {
		if err := r.RemoveCapability(gained, difc.CapMinus, false); err != nil {
			t.Fatal(err)
		}
		if r.caps.Has(gained, difc.CapMinus) {
			t.Error("capability still present after scoped drop")
		}
	}, nil)
	if !main.caps.Has(gained, difc.CapMinus) {
		t.Error("scoped drop leaked out of the region")
	}

	// Global drop: gone everywhere.
	main.Secure(difc.Labels{}, main.caps, func(r *Region) {
		if err := r.RemoveCapability(gained, difc.CapMinus, true); err != nil {
			t.Fatal(err)
		}
	}, nil)
	if main.caps.Has(gained, difc.CapMinus) {
		t.Error("global drop did not persist")
	}
}

func TestThreadForkCapabilitySubset(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	child, err := main.Fork([]kernel.Capability{{Tag: a, Kind: difc.CapPlus}})
	if err != nil {
		t.Fatal(err)
	}
	if !child.caps.Has(a, difc.CapPlus) || child.caps.Has(a, difc.CapMinus) {
		t.Errorf("child caps = %v", child.caps)
	}
	// Fork inside a region is rejected.
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		if _, err := main.Fork(nil); err == nil {
			t.Error("fork inside region succeeded")
		}
	}, nil)
}

func TestLabeledFileFromRegion(t *testing.T) {
	vm, main := newVM(t)
	a, _ := main.CreateTag()
	secret := difc.Labels{S: difc.NewLabel(a)}

	// Pre-create the labeled file while unlabeled, then write it from a
	// tainted region and read it back.
	fd, err := vm.Kernel().CreateFileLabeled(main.Task(), "cal", 0o600, secret)
	if err != nil {
		t.Fatal(err)
	}
	vm.Kernel().Close(main.Task(), fd)

	err = main.Secure(secret, difc.EmptyCapSet, func(r *Region) {
		wfd, err := r.OpenFile("cal", kernel.OWrite)
		if err != nil {
			t.Fatalf("open for write in region: %v", err)
		}
		if _, err := r.WriteFile(wfd, []byte("meeting 10am")); err != nil {
			t.Fatalf("write: %v", err)
		}
		r.CloseFile(wfd)
		rfd, err := r.OpenFile("cal", kernel.ORead)
		if err != nil {
			t.Fatalf("open for read: %v", err)
		}
		buf := make([]byte, 32)
		n, err := r.ReadFile(rfd, buf)
		if err != nil || string(buf[:n]) != "meeting 10am" {
			t.Errorf("read = %q, %v", buf[:n], err)
		}
		r.CloseFile(rfd)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Outside the region (unlabeled), the file is unreadable.
	if _, err := vm.Kernel().Open(main.Task(), "cal", kernel.ORead); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("unlabeled open = %v, want ENOENT", err)
	}
}

func TestLazyKernelSync(t *testing.T) {
	vm, main := newVM(t)
	a, _ := main.CreateTag()
	vm.Stats().Reset()
	// A region with no syscalls never pushes labels to the kernel.
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		o := r.Alloc(nil)
		r.Set(o, "x", 1)
	}, nil)
	if got := vm.Stats().LabelSyncs.Load(); got != 0 {
		t.Errorf("label syncs without syscall = %d, want 0", got)
	}
	// A region that opens a file pushes labels (entry) and restores (exit).
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		r.OpenFile("nonexistent", kernel.ORead)
	}, nil)
	if got := vm.Stats().LabelSyncs.Load(); got != 2 {
		t.Errorf("label syncs with syscall = %d, want 2 (set + restore)", got)
	}
	// Eager mode always syncs.
	vm.Stats().Reset()
	vm.EagerSync = true
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {}, nil)
	if got := vm.Stats().LabelSyncs.Load(); got != 2 {
		t.Errorf("eager label syncs = %d, want 2", got)
	}
}

func TestKernelSeesRegionLabels(t *testing.T) {
	vm, main := newVM(t)
	a, _ := main.CreateTag()
	l := difc.Labels{S: difc.NewLabel(a)}
	main.Secure(l, difc.EmptyCapSet, func(r *Region) {
		r.OpenFile("x", kernel.ORead) // forces sync
		if got := vm.mod.TaskLabels(main.Task()); !got.Equal(l) {
			t.Errorf("kernel labels in region = %v, want %v", got, l)
		}
	}, nil)
	if got := vm.mod.TaskLabels(main.Task()); !got.IsEmpty() {
		t.Errorf("kernel labels after region = %v", got)
	}
}

func TestStatsCounting(t *testing.T) {
	vm, main := newVM(t)
	vm.Stats().Reset()
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		o := r.Alloc(nil)
		r.Set(o, "a", 1)
		r.Get(o, "a")
		r.Get(o, "a")
	}, nil)
	s := vm.Stats()
	if s.RegionsEntered.Load() != 1 {
		t.Errorf("regions = %d", s.RegionsEntered.Load())
	}
	if s.AllocBarriers.Load() != 1 {
		t.Errorf("allocs = %d", s.AllocBarriers.Load())
	}
	if s.ReadBarriers.Load() != 2 || s.WriteBarriers.Load() != 1 {
		t.Errorf("read/write = %d/%d", s.ReadBarriers.Load(), s.WriteBarriers.Load())
	}
	if s.RegionNanos.Load() <= 0 {
		t.Error("region time not recorded")
	}
}

func TestArrayBarriers(t *testing.T) {
	_, main := newVM(t)
	a, _ := main.CreateTag()
	var arr *Object
	main.Secure(difc.Labels{S: difc.NewLabel(a)}, difc.EmptyCapSet, func(r *Region) {
		arr = r.AllocArray(3, nil)
		for i := 0; i < 3; i++ {
			r.SetIndex(arr, i, i*i)
		}
		if r.Index(arr, 2) != 4 {
			t.Errorf("arr[2] = %v", r.Index(arr, 2))
		}
		if len(arr.elems) != 3 {
			t.Errorf("len = %d", len(arr.elems))
		}
	}, nil)
	// Unlabeled region cannot read the labeled array.
	caught := false
	main.Secure(difc.Labels{}, difc.EmptyCapSet, func(r *Region) {
		r.Index(arr, 0)
	}, func(r *Region, e any) { caught = true })
	if !caught {
		t.Error("unlabeled region read labeled array")
	}
}

func TestUnlabeledObjectsFreeOutsideRegions(t *testing.T) {
	_, main := newVM(t)
	o := NewObject()
	main.Set(o, "k", "v")
	if main.Get(o, "k") != "v" {
		t.Error("dynamic barrier broke unlabeled access")
	}
	arr := NewArray(2)
	main.SetIndex(arr, 0, 10)
	if main.Index(arr, 0) != 10 {
		t.Error("dynamic array barrier broke unlabeled access")
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Op: "read", Err: errors.New("x")}
	if !strings.Contains(v.Error(), "read") || v.Unwrap() == nil {
		t.Errorf("Violation = %q", v.Error())
	}
}
