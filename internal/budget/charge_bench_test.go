package budget

import (
	"testing"

	"laminar/internal/difc"
)

// The charge hot path backs the laminar-bench -budget gate ceiling
// (DESIGN.md §17): on a memory-only ledger an unexhausted ChargeLabel
// must stay lock-free and allocation-free. Run with -benchmem; the
// allocs/op column is the regression to watch.

func BenchmarkChargeLabel(b *testing.B) {
	l := New()
	l.SetLimit(difc.Tag(7), 0, 1<<62)
	lab := difc.NewLabel(difc.Tag(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ChargeLabel("send", lab, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargeLabelUntracked(b *testing.B) {
	l := New()
	l.SetLimit(difc.Tag(9), 0, 1<<62)
	lab := difc.NewLabel(difc.Tag(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ChargeLabel("send", lab, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// wideLedger budgets tags 1..48 against peer 0 — the GradeSheet shape
// (DESIGN.md §17), where a TA or professor region holds every student's
// tag — and returns it with the 48-tag label.
func wideLedger(tb testing.TB) (*Ledger, difc.Label) {
	l := New()
	tags := make([]difc.Tag, 48)
	for i := range tags {
		tags[i] = difc.Tag(i + 1)
		if err := l.SetLimit(tags[i], 0, 1<<62); err != nil {
			tb.Fatal(err)
		}
	}
	return l, difc.NewLabel(tags...)
}

func BenchmarkChargeLabel48(b *testing.B) {
	l, lab := wideLedger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ChargeLabel("region_exit", lab, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargeLabelOneOf48(b *testing.B) {
	l, _ := wideLedger(b)
	lab := difc.NewLabel(difc.Tag(37))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ChargeLabel("region_exit", lab, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
