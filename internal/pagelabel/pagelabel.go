// Package pagelabel models HiStar-style page-granularity information flow
// tracking (Zeldovich et al., OSDI 2006), the second OS-level baseline in
// the Laminar paper's taxonomy. Labels attach to 4 KiB pages; a thread may
// touch a page only if its label is compatible, so placing two
// differently-labeled objects requires either segregating them onto
// separate pages (space overhead) or giving up (precision loss). The
// Laminar paper's motivation — "page mappings are an inefficient mechanism
// to control permissions for most user-defined data structures" (§1) — is
// quantified by this package's allocator statistics.
package pagelabel

import (
	"fmt"

	"laminar/internal/difc"
)

// PageSize is the tracking granularity in bytes.
const PageSize = 4096

// page is one labeled page with a bump allocator inside it.
type page struct {
	labels difc.Labels
	used   int
}

// Heap is a page-granularity labeled heap: objects are carved out of pages
// whose label must exactly match the object's.
type Heap struct {
	pages []*page
}

// NewHeap creates an empty heap.
func NewHeap() *Heap { return &Heap{} }

// Alloc places an object of size bytes on a page labeled exactly labels,
// opening a new page when no existing page with that label has room. This
// is the fragmentation source: every distinct label pins at least one
// page, so heaps of small heterogeneously labeled objects (like
// GradeSheet's per-student cells) explode in space.
func (h *Heap) Alloc(size int, labels difc.Labels) error {
	if size <= 0 || size > PageSize {
		return fmt.Errorf("pagelabel: bad object size %d", size)
	}
	for _, p := range h.pages {
		if p.labels.Equal(labels) && p.used+size <= PageSize {
			p.used += size
			return nil
		}
	}
	p := &page{labels: labels, used: size}
	h.pages = append(h.pages, p)
	return nil
}

// Stats reports the heap's space usage.
type Stats struct {
	Pages       int
	BytesWasted int // allocated page space never usable by other labels
}

// Stats computes the allocator's fragmentation statistics.
func (h *Heap) Stats() Stats {
	st := Stats{Pages: len(h.pages)}
	for _, p := range h.pages {
		st.BytesWasted += PageSize - p.used
	}
	return st
}
