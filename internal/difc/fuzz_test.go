package difc

import (
	"bytes"
	"slices"
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

// FuzzCanonicalLabel builds one fuzzed tag set by every route the
// package offers and requires each route to return the identical (==)
// label: NewLabel on the raw input with its duplicates and InvalidTags,
// on a reversed copy with every tag doubled, the Union of the two
// halves, Minus from a superset, Add and Remove chains, and the binary
// and text codecs. Against a second fuzzed set it checks SubsetOf, Equal
// and the set algebra with the reference model. The universe
// is tiny so duplicates, subsets and signature collisions are common.
func FuzzCanonicalLabel(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2})                // superset
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4})       // one tag more
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, []byte{5, 6, 7, 8}) // overlap
	f.Add([]byte{9, 9, 9, 9, 9, 9}, []byte{9})             // duplicates collapse
	// A short a against a long b: the binary-search subset path.
	f.Add([]byte{1, 3, 5}, []byte{0, 1, 2, 3, 4, 5, 6})  // subset, InvalidTag in b
	f.Add([]byte{0, 7}, []byte{0, 1, 2, 3, 4, 5, 6, 7})  // subset at both ends
	f.Add([]byte{1, 9}, []byte{0, 1, 2, 3, 4, 5, 6})     // non-subset, signature rejects
	f.Add([]byte{0, 12}, []byte{0, 1, 2, 3, 6})          // non-subset, t78 passes on t7's bit
	f.Add([]byte{12}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}) // lone t78 against a superset of t7
	f.Add([]byte{12, 7, 0, 12, 3}, []byte{3, 7, 12, 0})  // unsorted, duplicated, zeros
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		// t1..t11 plus t78, which shares t7's signature bit, so some
		// non-subsets pass the signature check and reach the tag walk;
		// byte 0 maps to InvalidTag, which every route must drop.
		universe := [...]Tag{InvalidTag, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 78}
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
		toSet := func(tags []Tag) refSet {
			s := refSet{}
			for _, tg := range tags {
				if tg != InvalidTag {
					s[tg] = true
				}
			}
			return s
		}
		aTags, bTags := toTags(aRaw), toTags(bRaw)
		aSet, bSet := toSet(aTags), toSet(bTags)

		a := NewLabel(aTags...)
		if !refEqual(aSet, a) || !slices.IsSorted(a.Tags()) {
			t.Fatalf("NewLabel(%v) = %v, model %v", aTags, a, aSet)
		}
		doubled := make([]Tag, 0, 2*len(aTags))
		for i := len(aTags) - 1; i >= 0; i-- {
			doubled = append(doubled, aTags[i], aTags[i])
		}
		h := len(aTags) / 2
		full := NewLabel(universe[:]...)
		added, removed := EmptyLabel, full
		for _, tg := range aTags {
			added = added.Add(tg)
		}
		for _, tg := range universe {
			if !aSet[tg] {
				removed = removed.remove(tg)
			}
		}
		wire, _ := a.MarshalBinary()
		decoded, err := UnmarshalLabel(wire)
		if err != nil {
			t.Fatalf("UnmarshalLabel: %v", err)
		}
		parsed, err := parseLabelText(a.formatText())
		if err != nil {
			t.Fatalf("parseLabelText: %v", err)
		}
		for _, r := range []struct {
			route string
			l     Label
		}{
			{"NewLabel on reversed, doubled input", NewLabel(doubled...)},
			{"Union of the halves", NewLabel(aTags[:h]...).Union(NewLabel(aTags[h:]...))},
			{"Minus from a superset", full.Minus(full.Minus(a))},
			{"Add chain", added},
			{"Remove chain", removed},
			{"UnmarshalLabel(MarshalBinary)", decoded},
			{"parseLabelText(formatText)", parsed},
		} {
			if r.l != a {
				t.Fatalf("%s gave %v (%p), NewLabel gave %v (%p)", r.route, r.l, r.l.n, a, a.n)
			}
		}

		b := NewLabel(bTags...)
		wantAB, wantBA := refSubset(aSet, bSet), refSubset(bSet, aSet)
		if got := a.SubsetOf(b); got != wantAB {
			t.Fatalf("SubsetOf(a⊆b) = %v, model says %v (a=%v b=%v)", got, wantAB, a, b)
		}
		if got := b.SubsetOf(a); got != wantBA {
			t.Fatalf("SubsetOf(b⊆a) = %v, model says %v (a=%v b=%v)", got, wantBA, a, b)
		}
		if got := a.Equal(b); got != (wantAB && wantBA) {
			t.Fatalf("Equal = %v, model says %v (a=%v b=%v)", got, wantAB && wantBA, a, b)
		}
		for _, tg := range append(universe[:], 12) { // t12 is never a member
			if a.Has(tg) != aSet[tg] {
				t.Fatalf("Has(%d) diverges from model on %v", tg, a)
			}
		}
		union, meet, minus := refSet{}, refSet{}, refSet{}
		for tg := range aSet {
			union[tg] = true
			if bSet[tg] {
				meet[tg] = true
			} else {
				minus[tg] = true
			}
		}
		for tg := range bSet {
			union[tg] = true
		}
		for _, r := range []struct {
			name  string
			model refSet
			got   Label
		}{{"Union", union, a.Union(b)}, {"Meet", meet, a.Meet(b)}, {"Minus", minus, a.Minus(b)}} {
			if !refEqual(r.model, r.got) || r.got != fromRef(r.model) {
				t.Fatalf("%s = %v, model says %v (a=%v b=%v)", r.name, r.got, r.model, a, b)
			}
		}
	})
}

// refSubset is x ⊆ y on the reference model.
func refSubset(x, y refSet) bool {
	for tg := range x {
		if !y[tg] {
			return false
		}
	}
	return true
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
		l, err := parseLabelText(s)
		if err != nil {
			return
		}
		back, err2 := parseLabelText(l.formatText())
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
		if c != back {
			t.Fatalf("capset round-trip changed: %v != %v", c, back)
		}
	})
}
