package lsm

import (
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// Small-scope exhaustive conformance: over a two-tag universe, every
// combination of (current label, requested label, capability set) is
// checked against the difc label-change rule — the module's
// set_task_label decision must match the specification exactly, in both
// directions. 4 × 4 × 16 = 256 cases per label type.
func TestSetTaskLabelConformance(t *testing.T) {
	tagA, tagB := difc.Tag(101), difc.Tag(102)
	subsets := []difc.Label{
		difc.NewLabel(),
		difc.NewLabel(tagA),
		difc.NewLabel(tagB),
		difc.NewLabel(tagA, tagB),
	}
	for _, typ := range []kernel.LabelType{kernel.Secrecy, kernel.Integrity} {
		for _, from := range subsets {
			for _, to := range subsets {
				for _, plus := range subsets {
					for _, minus := range subsets {
						caps := difc.NewCapSet(plus, minus)
						m := New()
						k := kernel.New(kernel.WithSecurityModule(m))
						task, err := k.Spawn(k.InitTask(), []kernel.Capability{})
						if err != nil {
							t.Fatal(err)
						}
						// Install the starting state directly (trusted
						// path), then issue the syscall under test.
						for _, tg := range plus.Tags() {
							m.GrantCapability(task, tg, difc.CapPlus)
						}
						for _, tg := range minus.Tags() {
							m.GrantCapability(task, tg, difc.CapMinus)
						}
						// Reach `from` using a temporary full grant that
						// is removed again afterwards.
						for _, tg := range from.Tags() {
							m.GrantCapability(task, tg, difc.CapPlus)
						}
						if err := k.SetTaskLabel(task, typ, from); err != nil {
							t.Fatalf("setup label %v: %v", from, err)
						}
						for _, tg := range from.Tags() {
							if !plus.Has(tg) {
								if err := k.DropCapabilities(task, []kernel.Capability{{Tag: tg, Kind: difc.CapPlus}}, false); err != nil {
									t.Fatal(err)
								}
							}
						}

						want := difc.CanChange(from, to, caps)
						err = k.SetTaskLabel(task, typ, to)
						got := err == nil
						if got != want {
							t.Fatalf("typ=%v from=%v to=%v caps=%v: module=%v spec=%v (%v)",
								typ, from, to, caps, got, want, err)
						}
						// On success the label actually changed.
						if got {
							labels := m.TaskLabels(task)
							var cur difc.Label
							if typ == kernel.Secrecy {
								cur = labels.S
							} else {
								cur = labels.I
							}
							if !cur.Equal(to) {
								t.Fatalf("label after change = %v, want %v", cur, to)
							}
						}
					}
				}
			}
		}
	}
}

// TestRegionEntryConformance exhausts the §4.3.2 entry rules over a
// two-tag secrecy universe against difc.CheckEnterRegion.
func TestRegionEntryConformance(t *testing.T) {
	tagA, tagB := difc.Tag(201), difc.Tag(202)
	subsets := []difc.Label{
		difc.NewLabel(),
		difc.NewLabel(tagA),
		difc.NewLabel(tagB),
		difc.NewLabel(tagA, tagB),
	}
	for _, sp := range subsets {
		for _, sr := range subsets {
			for _, plus := range subsets {
				for _, minus := range subsets {
					pc := difc.NewCapSet(plus, minus)
					p := difc.Labels{S: sp}
					r := difc.Labels{S: sr}
					want := sr.Minus(plus.Union(sp)).IsEmpty() && // rule (1)
						sp.Minus(sr).SubsetOf(minus) // drop half of label change
					got := difc.CheckEnterRegion(&p, &pc, &r, &difc.EmptyCapSet) == nil
					if got != want {
						t.Fatalf("sp=%v sr=%v caps=%v: got %v want %v", sp, sr, pc, got, want)
					}
				}
			}
		}
	}
}
