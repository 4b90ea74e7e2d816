package difc

import (
	"bytes"
	"testing"
)

// Fuzzers for the codec layer (codec.go). Two properties:
//
//  1. Never panic: decoders must reject arbitrary bytes with an error,
//     never a crash — labels are parsed out of untrusted xattr blobs
//     and persistent capability files.
//  2. Round-trip: whatever decodes successfully must re-encode to a
//     value that decodes to an equal label (canonicalization may change
//     the byte form, e.g. unsorted text input, but not the tag set).
//
// CI runs each fuzzer briefly (-fuzztime) on every push; the f.Add seed
// corpus keeps the short pass meaningful.

func FuzzUnmarshalLabel(f *testing.F) {
	for _, l := range []Label{{}, NewLabel(1), NewLabel(1, 2, 3), NewLabel(^Tag(0))} {
		b, _ := l.MarshalBinary()
		f.Add(b)
	}
	// Malformed seeds: short header, lying length, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 5})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := UnmarshalLabel(data)
		if err != nil {
			return
		}
		out, merr := l.MarshalBinary()
		if merr != nil {
			t.Fatalf("re-marshal of decoded label failed: %v", merr)
		}
		l2, err2 := UnmarshalLabel(out)
		if err2 != nil {
			t.Fatalf("round-trip decode failed: %v", err2)
		}
		if !l.Equal(l2) {
			t.Fatalf("round-trip changed label: %v != %v", l, l2)
		}
		// The binary form is canonical (sorted, deduped), so decoding a
		// canonical encoding must re-encode byte-identically.
		out2, _ := l2.MarshalBinary()
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding unstable: %x != %x", out, out2)
		}
	})
}

// FuzzInlineLabel cross-checks the two physical label representations:
// the inline value-type form (≤ inlineCap interned tags, no heap slice)
// and the heap form. Both are built from the same fuzzed tag multiset —
// NewLabel picks the representation by size, newLabelHeap forces heap —
// and every observable must agree across all representation pairings:
// SubsetOf in both directions, Equal, Has, Len, the canonical wire bytes
// from MarshalBinary, the text form, and the set algebra results. The
// fuzzer deliberately draws tags from a tiny universe so the inline
// boundary (4→5 tags) and duplicate-heavy inputs are hit constantly.
func FuzzInlineLabel(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2})                // inline vs inline, superset
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4})       // heap vs inline at the boundary
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, []byte{5, 6, 7, 8}) // heap vs inline, overlap
	f.Add([]byte{9, 9, 9, 9, 9, 9}, []byte{9})             // dup-heavy collapses to inline
	// Inline a against heap b: the binary-search subset path.
	f.Add([]byte{1, 3, 5}, []byte{0, 1, 2, 3, 4, 5, 6})  // subset
	f.Add([]byte{0, 7}, []byte{0, 1, 2, 3, 4, 5, 6, 7})  // subset at both ends
	f.Add([]byte{1, 9}, []byte{0, 1, 2, 3, 4, 5, 6})     // non-subset, signature rejects
	f.Add([]byte{0, 11}, []byte{0, 1, 2, 3, 6})          // non-subset, t78 passes on t7's bit
	f.Add([]byte{11}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}) // lone t78 against a superset of t7
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		// Tiny universe, so collisions and subsets are common: t1..t11
		// plus t78, which shares t7's signature bit, so some non-subsets
		// pass the signature check and reach the tag walk.
		universe := [...]Tag{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 78}
		toTags := func(raw []byte) []Tag {
			if len(raw) > 16 {
				raw = raw[:16]
			}
			tags := make([]Tag, len(raw))
			for i, b := range raw {
				tags[i] = universe[int(b)%len(universe)]
			}
			return tags
		}
		aTags, bTags := toTags(aRaw), toTags(bRaw)

		// Model: plain tag-set semantics over maps.
		toSet := func(tags []Tag) map[Tag]bool {
			s := map[Tag]bool{}
			for _, tg := range tags {
				s[tg] = true
			}
			return s
		}
		aSet, bSet := toSet(aTags), toSet(bTags)
		subsetModel := func(x, y map[Tag]bool) bool {
			for tg := range x {
				if !y[tg] {
					return false
				}
			}
			return true
		}

		aInline, aHeap := NewLabel(aTags...), newLabelHeap(aTags...)
		bInline, bHeap := NewLabel(bTags...), newLabelHeap(bTags...)
		aForms := []Label{aInline, aHeap}
		bForms := []Label{bInline, bHeap}

		wantAB, wantBA := subsetModel(aSet, bSet), subsetModel(bSet, aSet)
		wantEq := wantAB && wantBA
		for _, a := range aForms {
			if a.Len() != len(aSet) {
				t.Fatalf("Len diverges from model: %d != %d", a.Len(), len(aSet))
			}
			for _, tg := range append(universe[:], 12) { // t12 is never a member
				if a.Has(tg) != aSet[tg] {
					t.Fatalf("Has(%d) diverges from model on %v", tg, a)
				}
			}
			for _, b := range bForms {
				if got := a.SubsetOf(b); got != wantAB {
					t.Fatalf("SubsetOf(a⊆b) = %v, model says %v (a=%v b=%v)", got, wantAB, a, b)
				}
				if got := b.SubsetOf(a); got != wantBA {
					t.Fatalf("SubsetOf(b⊆a) = %v, model says %v (a=%v b=%v)", got, wantBA, a, b)
				}
				if got := a.Equal(b); got != wantEq {
					t.Fatalf("Equal = %v, model says %v (a=%v b=%v)", got, wantEq, a, b)
				}
			}
		}
		// Interned operands take the flow-cache path for heap×heap pairs
		// and the uncached walk for an inline left operand.
		for _, a := range []Label{Intern(aInline), Intern(aHeap)} {
			for _, b := range []Label{Intern(bInline), Intern(bHeap)} {
				if got := a.SubsetOf(b); got != wantAB {
					t.Fatalf("interned SubsetOf(a⊆b) = %v, model says %v (a=%v b=%v)", got, wantAB, a, b)
				}
				if got := b.SubsetOf(a); got != wantBA {
					t.Fatalf("interned SubsetOf(b⊆a) = %v, model says %v (a=%v b=%v)", got, wantBA, a, b)
				}
			}
		}

		// Canonical wire bytes and text form must not depend on the
		// representation: the differential oracle relies on this when it
		// compares label records across cached and uncached kernels.
		wireInline, err1 := aInline.MarshalBinary()
		wireHeap, err2 := aHeap.MarshalBinary()
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal failed: %v / %v", err1, err2)
		}
		if !bytes.Equal(wireInline, wireHeap) {
			t.Fatalf("wire bytes depend on representation: %x != %x", wireInline, wireHeap)
		}
		if aInline.FormatText() != aHeap.FormatText() {
			t.Fatalf("text form depends on representation: %q != %q", aInline.FormatText(), aHeap.FormatText())
		}
		back, err := UnmarshalLabel(wireInline)
		if err != nil || !back.Equal(aInline) || !back.Equal(aHeap) {
			t.Fatalf("wire round trip broke equality: err=%v back=%v", err, back)
		}

		// Set algebra agrees across representations (compare via Equal,
		// which itself was just cross-checked against the model).
		for _, op := range []struct {
			name string
			f    func(x, y Label) Label
		}{
			{"Union", func(x, y Label) Label { return x.Union(y) }},
			{"Meet", func(x, y Label) Label { return x.Meet(y) }},
			{"Minus", func(x, y Label) Label { return x.Minus(y) }},
		} {
			want := op.f(aInline, bInline)
			for _, a := range aForms {
				for _, b := range bForms {
					if got := op.f(a, b); !got.Equal(want) {
						t.Fatalf("%s depends on representation: %v != %v", op.name, got, want)
					}
				}
			}
		}

		// Union and Minus against the model, on interned operands too:
		// either may hand back an operand unchanged, and any id a result
		// carries must resolve through LabelByID to an Equal label.
		unionSet, minusSet := map[Tag]bool{}, map[Tag]bool{}
		for tg := range aSet {
			unionSet[tg] = true
			if !bSet[tg] {
				minusSet[tg] = true
			}
		}
		for tg := range bSet {
			unionSet[tg] = true
		}
		modelEqual := func(m map[Tag]bool, l Label) bool {
			return subsetModel(m, toSet(l.Tags())) && l.Len() == len(m)
		}
		for _, a := range append(aForms, Intern(aInline), Intern(aHeap)) {
			for _, b := range append(bForms, Intern(bInline), Intern(bHeap)) {
				for _, r := range []struct {
					name  string
					model map[Tag]bool
					got   Label
				}{{"Union", unionSet, a.Union(b)}, {"Minus", minusSet, a.Minus(b)}} {
					if !modelEqual(r.model, r.got) {
						t.Fatalf("%s = %v, model says %v (a=%v b=%v)", r.name, r.got, r.model, a, b)
					}
					if id := r.got.InternedID(); id != 0 {
						if canon, ok := LabelByID(id); !ok || !modelEqual(r.model, canon) {
							t.Fatalf("%s = %v carries id %d resolving to %v, %v", r.name, r.got, id, canon, ok)
						}
					}
				}
			}
		}
	})
}

func FuzzParseLabelText(f *testing.F) {
	f.Add("")
	f.Add("1")
	f.Add("1,2,3")
	f.Add("3,2,1,1")
	f.Add(" 7 , 8 ")
	f.Add("18446744073709551615")
	f.Add("x")
	f.Add("1,,2")
	f.Add("-1")
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseLabelText(s)
		if err != nil {
			return
		}
		back, err2 := ParseLabelText(l.FormatText())
		if err2 != nil {
			t.Fatalf("re-parse of formatted label failed: %v", err2)
		}
		if !l.Equal(back) {
			t.Fatalf("text round-trip changed label: %v != %v", l, back)
		}
	})
}

func FuzzParseCapSetText(f *testing.F) {
	f.Add("|")
	f.Add("1,2|3")
	f.Add("|5")
	f.Add("9|")
	f.Add("nope")
	f.Add("1|2|3")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCapSetText(s)
		if err != nil {
			return
		}
		back, err2 := ParseCapSetText(c.FormatText())
		if err2 != nil {
			t.Fatalf("re-parse of formatted capset failed: %v", err2)
		}
		if !c.Equal(back) {
			t.Fatalf("capset round-trip changed: %v != %v", c, back)
		}
	})
}
