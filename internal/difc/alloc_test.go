package difc

import "testing"

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
		{"Intern hit on a 48-tag label", func() { Intern(have) }},
	} {
		c.f() // the first Intern inserts; measure hits only
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
		sinkErr = CheckEnterRegion(Labels{S: all}, caps, Labels{}, caps)
	}
}
