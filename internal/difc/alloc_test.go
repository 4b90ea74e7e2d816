package difc

import (
	"testing"
	"unsafe"
)

// wideLabel returns the label {from, from+1, ..., from+n-1}.
func wideLabel(from Tag, n int) Label {
	tags := make([]Tag, n)
	for i := range tags {
		tags[i] = from + Tag(i)
	}
	return NewLabel(tags...)
}

// TestHotPathAllocs pins the allocation-free label operations that
// region entry and barriers run on every call.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	have := wideLabel(1, 48)
	want := wideLabel(10, 24)
	caps := NewCapSet(wideLabel(100, 8), EmptyLabel)
	disjoint := wideLabel(1000, 48)
	// outside holds 23 of want's tags plus one tag that shares the
	// signature bit of a tag of have, so only the merge walk refuses it.
	outside := wideLabel(10, 23).Add(collidingTag(40))
	twin := wideLabel(1, 48)
	ascending := have.Tags()
	wire, _ := have.MarshalBinary()
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"CheckAcquire with want ⊆ have", func() {
			if CheckAcquire("test", have, want, caps) != nil {
				t.Fatal("acquire refused")
			}
		}},
		{"48-tag Minus removing nothing", func() {
			if have.Minus(disjoint).Len() != 48 {
				t.Fatal("Minus removed a tag")
			}
		}},
		{"NewLabel of two tags", func() {
			if NewLabel(7, 3).Len() != 2 {
				t.Fatal("NewLabel lost a tag")
			}
		}},
		{"NewLabel of 48 ascending tags", func() {
			if NewLabel(ascending...) != have {
				t.Fatal("NewLabel built a second node")
			}
		}},
		{"UnmarshalLabel of a 48-tag label", func() {
			if l, _ := UnmarshalLabel(wire); l != have {
				t.Fatal("UnmarshalLabel built a second node")
			}
		}},
		{"24 ⊆ 48 SubsetOf", func() {
			if !want.SubsetOf(have) {
				t.Fatal("SubsetOf refused a subset")
			}
		}},
		{"48-tag non-subset past the signature", func() {
			if outside.SubsetOf(have) {
				t.Fatal("SubsetOf accepted a non-subset")
			}
		}},
		{"Equal on two separately built 48-tag labels", func() {
			if !have.Equal(twin) {
				t.Fatal("Equal refused a twin")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, got)
		}
	}
}

var sinkErr error

// BenchmarkCheckEnterRegion48 is the declassifying nested entry of the
// GradeSheet professor: from a 48-tag region into an unlabeled one,
// holding every minus capability.
func BenchmarkCheckEnterRegion48(b *testing.B) {
	all := wideLabel(1, 48)
	caps := NewCapSet(EmptyLabel, all)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkErr = CheckEnterRegion(&Labels{S: all}, &caps, &Labels{}, &caps)
	}
}

var sinkBool bool

// BenchmarkSubsetOfHeap48 is a subset check that passes the signature
// filter: a 24-tag label inside a 48-tag one, decided by a merge walk.
func BenchmarkSubsetOfHeap48(b *testing.B) {
	have, want := wideLabel(1, 48), wideLabel(10, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = want.SubsetOf(have)
	}
}

// BenchmarkEqualHeap48 compares two separately built 48-tag labels with
// the same tags: one pointer comparison.
func BenchmarkEqualHeap48(b *testing.B) {
	x, y := wideLabel(1, 48), wideLabel(1, 48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = x.Equal(y)
	}
}

// BenchmarkNewLabelParallel builds the same 48-tag label from every P:
// a stream of table hits from all cores at once, which stays flat only
// if a hit takes no lock and writes no shared word.
func BenchmarkNewLabelParallel(b *testing.B) {
	tags := wideLabel(1, 48).Tags()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if NewLabel(tags...).Len() != 48 {
				b.Fatal("NewLabel lost a tag")
			}
		}
	})
}

// TestLabelSize pins the value sizes that region entry and the barriers
// copy: a label is one pointer to its canonical node.
func TestLabelSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Label{}); got != 8 {
		t.Errorf("Label is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Labels{}); got != 16 {
		t.Errorf("Labels is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(CapSet{}); got != 16 {
		t.Errorf("CapSet is %d bytes, want 16", got)
	}
}
