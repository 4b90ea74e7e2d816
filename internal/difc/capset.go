package difc

import "strings"

// CapKind selects which halves of a tag's capability pair an operation
// refers to: the plus capability (classify / endorse), the minus capability
// (declassify / drop endorsement), or both.
type CapKind uint8

// Capability kinds. CapBoth is the union of CapPlus and CapMinus.
const (
	CapPlus CapKind = 1 << iota
	CapMinus
	CapBoth = CapPlus | CapMinus
)

// String names the capability kind (+, -, or +-).
func (k CapKind) String() string {
	switch k {
	case CapPlus:
		return "+"
	case CapMinus:
		return "-"
	case CapBoth:
		return "+-"
	default:
		return "?"
	}
}

// CapSet is an immutable capability set Cp: for each tag it records whether
// the principal may add the tag (t+ ∈ Cp) and whether it may drop it
// (t− ∈ Cp). The t+ capability classifies data with secrecy tag t or
// endorses data with integrity tag t; t− declassifies or drops the
// endorsement (§3.1).
//
// The zero value is the empty capability set.
type CapSet struct {
	plus  Label // tags with t+ held
	minus Label // tags with t- held
}

// EmptyCapSet holds no capabilities.
var EmptyCapSet = CapSet{}

// NewCapSet builds a capability set from explicit plus and minus tag sets.
func NewCapSet(plus, minus Label) CapSet { return CapSet{plus: plus, minus: minus} }

// Grant returns a capability set that additionally holds kind capabilities
// for tag t.
func (c CapSet) Grant(t Tag, kind CapKind) CapSet {
	out := c
	if kind&CapPlus != 0 {
		out.plus = out.plus.Add(t)
	}
	if kind&CapMinus != 0 {
		out.minus = out.minus.Add(t)
	}
	return out
}

// Drop returns a capability set without the kind capabilities for tag t.
func (c CapSet) Drop(t Tag, kind CapKind) CapSet {
	out := c
	if kind&CapPlus != 0 {
		out.plus = out.plus.remove(t)
	}
	if kind&CapMinus != 0 {
		out.minus = out.minus.remove(t)
	}
	return out
}

// Has reports whether the set holds all the kind capabilities for tag t.
func (c CapSet) Has(t Tag, kind CapKind) bool {
	if kind&CapPlus != 0 && !c.plus.Has(t) {
		return false
	}
	if kind&CapMinus != 0 && !c.minus.Has(t) {
		return false
	}
	return kind != 0
}

// Plus returns the set of tags for which t+ is held (Cp+).
func (c CapSet) Plus() Label { return c.plus }

// Minus returns the set of tags for which t− is held (Cp−).
func (c CapSet) Minus() Label { return c.minus }

// Union returns the combined capabilities of c and other.
func (c CapSet) Union(other CapSet) CapSet {
	return CapSet{plus: c.plus.Union(other.plus), minus: c.minus.Union(other.minus)}
}

// SubsetOf reports whether every capability in c is also in other
// (CR ⊆ CP, rule (2) of §4.3.2).
func (c CapSet) SubsetOf(other CapSet) bool {
	return c.plus.SubsetOf(other.plus) && c.minus.SubsetOf(other.minus)
}

// String renders the set as C(t1+,t2+-,...), in the paper's notation.
func (c CapSet) String() string {
	var b strings.Builder
	b.WriteString("C(")
	first := true
	both := c.plus.Meet(c.minus)
	for _, t := range both.Tags() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.String())
		b.WriteString("+-")
	}
	for _, t := range c.plus.Minus(both).Tags() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.String())
		b.WriteByte('+')
	}
	for _, t := range c.minus.Minus(both).Tags() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.String())
		b.WriteByte('-')
	}
	b.WriteByte(')')
	return b.String()
}
