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

// inlineCap is the largest tag count stored inline in the Label value
// itself. Real DIFC labels are tiny — a principal's secrecy label is
// typically one or two tags — so the inline representation covers the
// hot path without ever touching the heap.
const inlineCap = 4

// Label is an immutable set of tags. A label is attached to principals and
// data objects, once for secrecy and once for integrity. The subset
// relation over labels forms the lattice of Denning's model; the empty
// label is the lattice bottom and is the implicit label of every unlabeled
// resource (§3.1).
//
// Labels at or below inlineCap tags are stored inline in the value itself
// (heap == nil, tags in inline[:n]); larger labels spill to a heap slice.
// The representation is invisible through the API: Equal, SubsetOf and the
// codecs agree between an inline label and a heap twin with the same tags.
//
// The zero value is the empty label and is ready to use.
type Label struct {
	// heap holds the tags, sorted ascending with no duplicates, when the
	// label is too large for the inline array. nil means the inline
	// representation is in use. Never mutated after construction.
	heap []Tag
	// sig is a 64-bit membership signature (one hashed bit per tag).
	// l ⊆ other requires l.sig &^ other.sig == 0, giving SubsetOf and Has
	// an O(1) rejection path that never consults the tag storage.
	sig uint64
	// inline and n hold small tag sets by value; meaningful only when
	// heap == nil.
	inline [inlineCap]Tag
	n      uint8
}

// EmptyLabel is the label of unlabeled resources: {S()} or {I()}.
var EmptyLabel = Label{}

// tagBit hashes a tag onto one bit of the signature word.
func tagBit(t Tag) uint64 {
	h := uint64(t) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return 1 << (h & 63)
}

// view returns the label's tags without copying. The result aliases the
// receiver (the inline array for small labels), so it must not escape or
// outlive the *Label it came from; every use in this package reads it and
// drops it within the calling function.
func (l *Label) view() []Tag {
	if l.heap != nil {
		return l.heap
	}
	return l.inline[:l.n]
}

// labelOf builds a label from a sorted, deduplicated, InvalidTag-free
// slice. Small sets are copied into the inline array and the input slice
// is not retained; larger sets retain the slice, so it must be a fresh
// heap slice. Results built in stack scratch go through labelCopy.
func labelOf(tags []Tag) Label {
	if len(tags) <= inlineCap {
		return labelInline(tags)
	}
	l := Label{heap: tags}
	for _, t := range tags {
		l.sig |= tagBit(t)
	}
	return l
}

// labelInline is labelOf for at most inlineCap tags. It never retains
// the slice, which is what lets callers keep their scratch on the stack.
func labelInline(tags []Tag) Label {
	var l Label
	for _, t := range tags {
		l.sig |= tagBit(t)
	}
	l.n = uint8(copy(l.inline[:], tags))
	return l
}

// labelCopy is labelOf for slices the label must not retain (stack
// scratch): large results are copied to a fresh heap slice first.
func labelCopy(tags []Tag) Label {
	if len(tags) > inlineCap {
		h := make([]Tag, len(tags))
		copy(h, tags)
		return labelOf(h)
	}
	return labelInline(tags)
}

// buildScratch is the stack scratch in which the label constructors
// build results of up to 2*inlineCap tags. Each constructor fills either
// a buildScratch, finished by labelCopy, or, when the result may be
// larger, a fresh heap slice finished by labelOf without a second copy.
// The two paths are separate calls so that escape analysis can keep the
// scratch on the stack.
type buildScratch [2 * inlineCap]Tag

// NewLabel builds a label from the given tags. Duplicates are collapsed and
// InvalidTag entries are dropped. Small inputs are normalized entirely on
// the stack, so constructing the one- and two-tag labels that dominate real
// workloads performs no allocation.
func NewLabel(tags ...Tag) Label {
	if len(tags) == 0 {
		return Label{}
	}
	var scratch buildScratch
	if len(tags) <= len(scratch) {
		return labelCopy(appendNormalized(scratch[:0], tags))
	}
	return labelOf(appendNormalized(make([]Tag, 0, len(tags)), tags))
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

// newLabelHeap builds a label that uses the heap representation even when
// the tag set would fit inline. It exists so tests (FuzzInlineLabel) can
// pit the two representations against each other; nothing else should
// create small heap labels.
func newLabelHeap(tags ...Tag) Label {
	l := NewLabel(tags...)
	if l.heap == nil && l.n > 0 {
		h := make([]Tag, l.n)
		copy(h, l.inline[:l.n])
		l.heap = h
		l.n = 0
		l.inline = [inlineCap]Tag{}
	}
	return l
}

// Len reports the number of tags in the label.
func (l Label) Len() int {
	if l.heap != nil {
		return len(l.heap)
	}
	return int(l.n)
}

// IsEmpty reports whether the label is the empty (bottom) label.
func (l Label) IsEmpty() bool { return l.heap == nil && l.n == 0 }

// Has reports whether tag t is a member of the label.
func (l Label) Has(t Tag) bool {
	if l.sig&tagBit(t) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(l.view(), t)
	return ok
}

// Tags returns a copy of the label's tags in ascending order. The copy may
// be mutated by the caller without affecting the label.
func (l Label) Tags() []Tag {
	v := l.view()
	if len(v) == 0 {
		return nil
	}
	out := make([]Tag, len(v))
	copy(out, v)
	return out
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
// The signature word rejects most non-subsets in one AND-NOT, and a
// longer l is rejected by its length. A surviving inline l (at most
// inlineCap tags) against a heap other binary-searches each of its few
// tags; every other pair is decided by one merge walk. No answer is
// memoized: the check reads only the two labels.
func (l Label) SubsetOf(other Label) bool { return l.subsetOf(&other) }

// subsetOf is SubsetOf without copying either 72-byte operand; the
// barrier and region-entry checks call it on labels they already hold.
func (l *Label) subsetOf(other *Label) bool {
	if l.sig&^other.sig != 0 {
		return false // some tag of l hashes outside other's signature
	}
	if len(l.view()) > len(other.view()) {
		return false
	}
	if l.heap == nil && other.heap != nil {
		return l.subsetSearch(other.heap)
	}
	return l.subsetMerge(other)
}

// subsetSearch decides an inline l ⊆ b by binary-searching each of l's
// tags in the part of sorted b beyond the previous match: at most
// inlineCap searches, no lock and no allocation.
func (l *Label) subsetSearch(b []Tag) bool {
	for _, t := range l.inline[:l.n] {
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

// subsetMerge decides l ⊆ other by one sorted-merge walk over both.
func (l *Label) subsetMerge(other *Label) bool {
	a, b := l.view(), other.view()
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
// checks ask before they build the missing set of a denial.
func (l *Label) coveredBy(x, y *Label) bool {
	if l.sig&^(x.sig|y.sig) != 0 {
		return false
	}
	a, b, c := l.view(), x.view(), y.view()
	j, k := 0, 0
	for _, t := range a {
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

// Equal reports whether two labels contain exactly the same tags.
func (l Label) Equal(other Label) bool {
	if l.sig != other.sig {
		return false
	}
	a, b := l.view(), other.view()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Union returns the least upper bound of l and other in the label lattice.
func (l Label) Union(other Label) Label {
	if l.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return l
	}
	a, b := l.view(), other.view()
	var scratch buildScratch
	if len(a)+len(b) <= len(scratch) {
		return labelCopy(appendUnion(scratch[:0], a, b))
	}
	return labelOf(appendUnion(make([]Tag, 0, len(a)+len(b)), a, b))
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
	if l.IsEmpty() || other.IsEmpty() {
		return Label{}
	}
	a, b := l.view(), other.view()
	var scratch buildScratch
	m := min(len(a), len(b))
	if m <= len(scratch) {
		return labelCopy(appendMeet(scratch[:0], a, b))
	}
	return labelOf(appendMeet(make([]Tag, 0, m), a, b))
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
	if l.IsEmpty() || l.sig&other.sig == 0 {
		return l // disjoint signatures: nothing to remove
	}
	a, b := l.view(), other.view()
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
	var scratch buildScratch
	if len(a)-1 <= len(scratch) {
		return labelCopy(appendMinus(append(scratch[:0], a[:i]...), a[i+1:], b[j+1:]))
	}
	return labelOf(appendMinus(append(make([]Tag, 0, len(a)-1), a[:i]...), a[i+1:], b[j+1:]))
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

// Add returns a new label that also contains t.
func (l Label) Add(t Tag) Label {
	if t == InvalidTag || l.Has(t) {
		return l
	}
	return l.Union(NewLabel(t))
}

// Remove returns a new label without t.
func (l Label) Remove(t Tag) Label {
	if !l.Has(t) {
		return l
	}
	return l.Minus(NewLabel(t))
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
