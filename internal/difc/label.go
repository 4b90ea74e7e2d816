// Package difc implements the decentralized information flow control model
// used by Laminar (Roy et al., PLDI 2009): tags, labels, capability sets,
// and the rules that determine which information flows are legal.
//
// The package is pure — it has no dependency on the runtime or kernel
// substrates — and every type in it is immutable after construction, which
// mirrors the paper's immutable-label design (§4.5) and lets labels be
// shared freely between threads, objects and security regions without
// synchronization.
package difc

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Tag is a short arbitrary token drawn from a 64-bit universe (§3.1). A tag
// has no inherent meaning; meaning comes from the labels and capabilities
// that reference it. The zero value is reserved as "no tag" and never
// allocated.
type Tag uint64

// InvalidTag is the reserved zero tag. Allocators never return it and
// labels never contain it.
const InvalidTag Tag = 0

// String formats the tag as t<n> for readable test and log output.
func (t Tag) String() string { return fmt.Sprintf("t%d", uint64(t)) }

// Label is an immutable set of tags. A label is attached to principals and
// data objects, once for secrecy and once for integrity. The subset
// relation over labels forms the lattice of Denning's model; the empty
// label is the lattice bottom and is the implicit label of every unlabeled
// resource (§3.1).
//
// A label is one word: a pointer to the one live canonical node for its
// tag set (canon.go), or nil for the empty label. Every constructor
// returns that node, so two labels hold the same tags exactly when they
// are ==, and Equal is pointer equality. This is the paper's "label word"
// (§5.1): copying a label, a Labels pair or a CapSet moves pointers, never
// tags.
//
// The zero value is the empty label and is ready to use.
type Label struct {
	n *node
}

// node is the canonical, immutable representation of one non-empty tag
// set. Only the table in canon.go creates nodes.
type node struct {
	// tags are sorted ascending with no duplicates and no InvalidTag.
	tags []Tag
	// sig is a 64-bit membership signature (one hashed bit per tag).
	// l ⊆ other requires l.sig &^ other.sig == 0, giving SubsetOf and Has
	// an O(1) rejection path that never consults the tags.
	sig uint64
}

// EmptyLabel is the label of unlabeled resources: {S()} or {I()}.
var EmptyLabel = Label{}

// tagBit hashes a tag onto one bit of the signature word.
func tagBit(t Tag) uint64 {
	h := uint64(t) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return 1 << (h & 63)
}

// view returns the label's tags without copying. The result is the
// canonical node's slice and must not be mutated.
func (l Label) view() []Tag {
	if l.n == nil {
		return nil
	}
	return l.n.tags
}

// signature returns the label's membership signature (0 when empty).
func (l Label) signature() uint64 {
	if l.n == nil {
		return 0
	}
	return l.n.sig
}

// scratchTags is the stack buffer in which the constructors build a
// result before looking it up; a result that may be larger is built in a
// heap slice instead. The canonical table copies what it keeps, so a
// lookup that hits allocates nothing.
type scratchTags [64]Tag

// buffer returns an empty slice with room for n tags: the scratch array
// when it is large enough, else a fresh heap slice.
func (s *scratchTags) buffer(n int) []Tag {
	if n <= len(s) {
		return s[:0]
	}
	return make([]Tag, 0, n)
}

// NewLabel builds a label from the given tags. Duplicates are collapsed and
// InvalidTag entries are dropped. Input that is already strictly ascending
// and free of InvalidTag, the common case, is looked up as it stands after
// one pass; anything else is normalized in stack scratch first. A label
// that already exists is returned without allocating.
func NewLabel(tags ...Tag) Label {
	if len(tags) == 0 {
		return Label{}
	}
	if isCanonical(tags) {
		return canonical(tags)
	}
	var s scratchTags
	return canonical(appendNormalized(s.buffer(len(tags)), tags))
}

// isCanonical reports whether tags is strictly ascending and holds no
// InvalidTag, the form the canonical table stores.
func isCanonical(tags []Tag) bool {
	prev := InvalidTag
	for _, t := range tags {
		if t <= prev {
			return false
		}
		prev = t
	}
	return true
}

// appendNormalized appends tags to out sorted, deduplicated and without
// InvalidTag.
func appendNormalized(out, tags []Tag) []Tag {
	for _, t := range tags {
		if t != InvalidTag {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Len reports the number of tags in the label.
func (l Label) Len() int { return len(l.view()) }

// IsEmpty reports whether the label is the empty (bottom) label.
func (l Label) IsEmpty() bool { return l.n == nil }

// Has reports whether tag t is a member of the label.
func (l Label) Has(t Tag) bool {
	if l.signature()&tagBit(t) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(l.n.tags, t)
	return ok
}

// Tags returns a copy of the label's tags in ascending order. The copy may
// be mutated by the caller without affecting the label.
func (l Label) Tags() []Tag {
	v := l.view()
	if len(v) == 0 {
		return nil
	}
	return slices.Clone(v)
}

// Each calls fn for every tag in ascending order, stopping early when fn
// returns false. It is the allocation-free alternative to Tags() for hot
// paths that only need to walk the set (ISSUE 10's budget charging).
func (l Label) Each(fn func(Tag) bool) {
	for _, t := range l.view() {
		if !fn(t) {
			return
		}
	}
}

// SubsetOf reports whether every tag in l is also in other (l ⊆ other).
// Identical operands and an empty l answer here, in code small enough
// to inline into the barriers. For the rest, the signature word rejects
// most non-subsets in one AND-NOT, and a longer l is rejected by its
// length. A pair that survives is decided by a walk over the tags.
func (l Label) SubsetOf(other Label) bool {
	return l.n == other.n || l.n == nil || l.n.subsetOf(other.n)
}

// searchCap is the longest left operand that SubsetOf decides by binary
// search in a longer right operand rather than by a merge walk.
const searchCap = 4

func (a *node) subsetOf(b *node) bool {
	if b == nil || a.sig&^b.sig != 0 || len(a.tags) > len(b.tags) {
		return false
	}
	if len(a.tags) <= searchCap && len(b.tags) > searchCap {
		return subsetSearch(a.tags, b.tags)
	}
	return subsetMerge(a.tags, b.tags)
}

// subsetSearch decides a ⊆ b by binary-searching each of a's few tags in
// the part of sorted b beyond the previous match.
func subsetSearch(a, b []Tag) bool {
	for _, t := range a {
		i := searchTags(b, t)
		if i == len(b) || b[i] != t {
			return false
		}
		b = b[i+1:]
	}
	return true
}

// searchTags returns the index of the first tag in sorted b that is not
// below t, or len(b). It always halves and selects with arithmetic
// rather than a branch, so a barrier stream over unrelated cells does
// not pay a mispredicted branch per step.
func searchTags(b []Tag, t Tag) int {
	if len(b) == 0 {
		return 0
	}
	// Invariant: every tag before base is below t, and the answer lies
	// in [base, base+n].
	base, n := 0, len(b)
	for n > 1 {
		half := n >> 1
		// borrow is 1 exactly when b[base+half] < t.
		_, borrow := bits.Sub64(uint64(b[base+half]), uint64(t), 0)
		base += half & -int(borrow)
		n -= half
	}
	_, borrow := bits.Sub64(uint64(b[base]), uint64(t), 0)
	return base + int(borrow)
}

// subsetMerge decides a ⊆ b by one sorted-merge walk over both.
func subsetMerge(a, b []Tag) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// coveredBy reports whether every tag of l is in x or in y
// (l ⊆ x ∪ y) without building the union: the allocation-free form of
// "l.Minus(x.Union(y)) is empty" that the label-change and region-entry
// checks ask before they build the missing set of a denial. With an
// empty side it is SubsetOf of the other side.
func (l Label) coveredBy(x, y Label) bool {
	return l.n == x.n || l.n == y.n || l.n.coveredBy(x.n, y.n)
}

// coveredBy on a nil (empty) node is true.
func (a *node) coveredBy(x, y *node) bool {
	switch {
	case a == nil:
		return true
	case x == nil:
		return a.subsetOf(y)
	case y == nil:
		return a.subsetOf(x)
	}
	if a.sig&^(x.sig|y.sig) != 0 {
		return false
	}
	b, c := x.tags, y.tags
	j, k := 0, 0
	for _, t := range a.tags {
		for j < len(b) && b[j] < t {
			j++
		}
		for k < len(c) && c[k] < t {
			k++
		}
		if (j == len(b) || b[j] != t) && (k == len(c) || c[k] != t) {
			return false
		}
	}
	return true
}

// Equal reports whether two labels contain exactly the same tags. Labels
// are canonical, so that is pointer equality.
func (l Label) Equal(other Label) bool { return l.n == other.n }

// Union returns the least upper bound of l and other in the label lattice.
func (l Label) Union(other Label) Label {
	if l.n == nil || l.n == other.n {
		return other
	}
	if other.n == nil {
		return l
	}
	a, b := l.n.tags, other.n.tags
	var s scratchTags
	return canonical(appendUnion(s.buffer(len(a)+len(b)), a, b))
}

// appendUnion appends the sorted merge of a and b to out.
func appendUnion(out, a, b []Tag) []Tag {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Meet returns the greatest lower bound (intersection) of l and other.
func (l Label) Meet(other Label) Label {
	if l.n == nil || other.n == nil {
		return Label{}
	}
	if l.n == other.n {
		return l
	}
	a, b := l.n.tags, other.n.tags
	var s scratchTags
	return canonical(appendMeet(s.buffer(min(len(a), len(b))), a, b))
}

// appendMeet appends the tags both a and b hold to out.
func appendMeet(out, a, b []Tag) []Tag {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Minus returns the set difference l − other. When other holds none of
// l's tags the result is l itself.
func (l Label) Minus(other Label) Label {
	if l.n == nil || l.n.sig&other.signature() == 0 {
		return l // disjoint signatures: nothing to remove
	}
	if l.n == other.n {
		return Label{}
	}
	a, b := l.n.tags, other.n.tags
	// Find the first tag of l that other holds.
	i, j := 0, 0
	for i < len(a) && j < len(b) && a[i] != b[j] {
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	if i == len(a) || j == len(b) {
		return l
	}
	// a[i] goes; keep a[:i] and whatever of a[i+1:] other lacks.
	var s scratchTags
	return canonical(appendMinus(append(s.buffer(len(a)-1), a[:i]...), a[i+1:], b[j+1:]))
}

// appendMinus appends the tags of a that b lacks to out.
func appendMinus(out, a, b []Tag) []Tag {
	j := 0
	for _, t := range a {
		for j < len(b) && b[j] < t {
			j++
		}
		if j == len(b) || b[j] != t {
			out = append(out, t)
		}
	}
	return out
}

// Add returns a label that also contains t.
func (l Label) Add(t Tag) Label {
	if t == InvalidTag || l.Has(t) {
		return l
	}
	a := l.view()
	var s scratchTags
	return canonical(appendUnion(s.buffer(len(a)+1), a, []Tag{t}))
}

// remove returns a label without t.
func (l Label) remove(t Tag) Label {
	if !l.Has(t) {
		return l
	}
	a := l.n.tags
	var s scratchTags
	return canonical(appendMinus(s.buffer(len(a)-1), a, []Tag{t}))
}

// String renders the label as {t1,t2,...}; the empty label renders as {}.
func (l Label) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range l.view() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
