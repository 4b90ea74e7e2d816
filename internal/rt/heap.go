package rt

import (
	"fmt"
	"sync"

	"laminar/internal/difc"
)

// Object is a heap value in the VM's object space. Labeled objects live
// logically in the labeled object space (§5.1: a separate space lets the
// JIT's barrier test "is this object labeled?" be a fast range check; here
// the labeled flag plays that role). Labels are immutable after
// allocation — relabeling means CopyAndLabel (§4.5) — so barriers can read
// them without synchronization.
//
// An Object has named fields and an optional array part, enough to model
// the Java objects and arrays the paper instruments.
type Object struct {
	labels  difc.Labels
	labeled bool

	mu     sync.Mutex
	fields map[string]any
	elems  []any
}

// Violation is the panic payload for a DIFC check failure inside a
// security region — the VM-raised exception of §4.3.3 that the region's
// catch block receives.
type Violation struct {
	Op  string
	Err error
}

// Error renders the violation.
func (v *Violation) Error() string { return fmt.Sprintf("rt: %s: %v", v.Op, v.Err) }

// Unwrap exposes the underlying flow error.
func (v *Violation) Unwrap() error { return v.Err }

// Labels returns the object's immutable label pair. Labels objects are
// opaque in the paper's API — applications may compare and combine them
// but never observe raw tag values through the object; difc.Label enforces
// that by never exposing tag internals except to trusted code.
func (o *Object) Labels() difc.Labels { return o.labels }

// IsLabeled reports whether the object lives in the labeled object space.
func (o *Object) IsLabeled() bool { return o.labeled }

// Len returns the length of the object's array part.
func (o *Object) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.elems)
}

// rawGet reads a field without barriers (unsecured baseline and trusted
// declassifier internals).
func (o *Object) rawGet(field string) any {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fields[field]
}

func (o *Object) rawSet(field string, v any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fields == nil {
		o.fields = make(map[string]any)
	}
	o.fields[field] = v
}

func (o *Object) rawIndex(i int) any {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.elems[i]
}

func (o *Object) rawSetIndex(i int, v any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.elems[i] = v
}

// RawGet is the barrier-free field read used by unsecured application
// variants (the Figure 9 baselines). It performs the same locking as the
// checked path so overhead comparisons isolate the security checks.
func (o *Object) RawGet(field string) any { return o.rawGet(field) }

// RawSet is the barrier-free field write (unsecured baselines).
func (o *Object) RawSet(field string, v any) { o.rawSet(field, v) }

// RawIndex is the barrier-free element read (unsecured baselines).
func (o *Object) RawIndex(i int) any { return o.rawIndex(i) }

// RawSetIndex is the barrier-free element write (unsecured baselines).
func (o *Object) RawSetIndex(i int, v any) { o.rawSetIndex(i, v) }

// --- allocation ---

// NewObject allocates an unlabeled object outside any region (ordinary
// allocation in unmodified code paths).
func NewObject() *Object { return &Object{} }

// NewArray allocates an unlabeled array object of n elements.
func NewArray(n int) *Object { return &Object{elems: make([]any, n)} }

// Alloc allocates an object inside the region. With labels == nil the
// object takes the region's labels at the allocation point (§5.1); an
// explicit label pair must conform to the DIFC rules: the region's secrecy
// flows into the object, and any additional tags require the plus
// capability — the same conditions as labeled file creation.
func (r *Region) Alloc(labels *difc.Labels) *Object {
	r.thread.vm.stats.AllocBarriers.Add(1)
	l := r.labels
	if labels != nil {
		l = *labels
		r.check("alloc", r.allocConforms(l))
	}
	return &Object{labels: l, labeled: !l.IsEmpty(), fields: make(map[string]any)}
}

// AllocArray allocates an n-element array with the same labeling rules as
// Alloc.
func (r *Region) AllocArray(n int, labels *difc.Labels) *Object {
	r.thread.vm.stats.AllocBarriers.Add(1)
	l := r.labels
	if labels != nil {
		l = *labels
		r.check("alloc", r.allocConforms(l))
	}
	return &Object{labels: l, labeled: !l.IsEmpty(), elems: make([]any, n)}
}

func (r *Region) allocConforms(l difc.Labels) error {
	// Region secrecy must flow into the object (an S-only flow check: the
	// allocating context writes the initial state), and any tags beyond the
	// region's need the plus capability — the acquisition half of the
	// label-change rule, same as labeled file creation. Structured errors
	// give the telemetry layer rule provenance and the offending tag delta.
	if err := difc.CheckFlow("alloc", difc.Labels{S: r.labels.S}, difc.Labels{S: l.S}); err != nil {
		return err
	}
	if err := difc.CheckAcquire("alloc", r.labels.S, l.S, r.caps); err != nil {
		return err
	}
	return difc.CheckAcquire("alloc", r.labels.I, l.I, r.caps)
}

// CopyAndLabel clones o with new labels (Figure 2). The label change must
// satisfy the label-change rule against the region's capabilities:
// (L2−L1) ⊆ C+ and (L1−L2) ⊆ C− for both components. Deep enough for the
// paper's use: fields and elements are copied shallowly (they are values
// or references whose own labels still protect them).
func (r *Region) CopyAndLabel(o *Object, labels difc.Labels) *Object {
	r.check("copyAndLabel", difc.CheckChangeLabels("copyAndLabel", o.labels, labels, r.caps))
	r.thread.vm.emit(Event{Kind: EvCopyAndLabel, Thread: uint64(r.thread.task.TID), Labels: r.labels, From: o.labels, To: labels})
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := &Object{labels: labels, labeled: !labels.IsEmpty()}
	if o.fields != nil {
		cp.fields = make(map[string]any, len(o.fields))
		for k, v := range o.fields {
			cp.fields[k] = v
		}
	}
	if o.elems != nil {
		cp.elems = make([]any, len(o.elems))
		copy(cp.elems, o.elems)
	}
	return cp
}

// --- static barriers: the region is statically known ---
// These are the checks the compiler emits when it knows at JIT time that
// the access site is inside a security region (§5.1, "static barriers").

// Get reads a field through the region's read barrier.
func (r *Region) Get(o *Object, field string) any {
	r.readBarrier(o)
	return o.rawGet(field)
}

// Set writes a field through the region's write barrier.
func (r *Region) Set(o *Object, field string, v any) {
	r.writeBarrier(o)
	o.rawSet(field, v)
}

// Index reads an array element through the read barrier.
func (r *Region) Index(o *Object, i int) any {
	r.readBarrier(o)
	return o.rawIndex(i)
}

// SetIndex writes an array element through the write barrier.
func (r *Region) SetIndex(o *Object, i int, v any) {
	r.writeBarrier(o)
	o.rawSetIndex(i, v)
}

// readBarrier checks object -> thread flow: the region may read o only if
// o's secrecy is within the region's and the region's integrity within
// o's. The verdict is taken on pointers to the two label pairs; the
// CheckFlow error, which copies both, is built only for a denial.
func (r *Region) readBarrier(o *Object) {
	r.thread.vm.stats.ReadBarriers.Add(1)
	if !difc.FlowAllowed(&o.labels, &r.labels) {
		r.check("read", difc.CheckFlow("read", o.labels, r.labels))
	}
}

// writeBarrier checks thread -> object flow.
func (r *Region) writeBarrier(o *Object) {
	r.thread.vm.stats.WriteBarriers.Add(1)
	if !difc.FlowAllowed(&r.labels, &o.labels) {
		r.check("write", difc.CheckFlow("write", r.labels, o.labels))
	}
}

// --- dynamic barriers: context resolved at run time ---
// When a method compiles once but runs both inside and outside regions,
// the compiler emits a dynamic barrier that first asks "is this thread in
// a region?" and then applies the matching check (§5.1, "dynamic
// barriers"). Outside regions the object must be unlabeled.

// Get reads a field through a dynamic barrier on the thread.
func (t *Thread) Get(o *Object, field string) any {
	t.dynamicReadBarrier(o)
	return o.rawGet(field)
}

// Set writes a field through a dynamic barrier.
func (t *Thread) Set(o *Object, field string, v any) {
	t.dynamicWriteBarrier(o)
	o.rawSet(field, v)
}

// Index reads an element through a dynamic barrier.
func (t *Thread) Index(o *Object, i int) any {
	t.dynamicReadBarrier(o)
	return o.rawIndex(i)
}

// SetIndex writes an element through a dynamic barrier.
func (t *Thread) SetIndex(o *Object, i int, v any) {
	t.dynamicWriteBarrier(o)
	o.rawSetIndex(i, v)
}

func (t *Thread) dynamicReadBarrier(o *Object) {
	if t.InRegion() {
		t.region.readBarrier(o)
		return
	}
	t.vm.stats.ReadBarriers.Add(1)
	if o.labeled {
		err := fmt.Errorf("labeled object %v accessed outside a security region", o.labels)
		t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Op: "read", Err: err})
		panic(&Violation{Op: "read", Err: err})
	}
}

func (t *Thread) dynamicWriteBarrier(o *Object) {
	if t.InRegion() {
		t.region.writeBarrier(o)
		return
	}
	t.vm.stats.WriteBarriers.Add(1)
	if o.labeled {
		err := fmt.Errorf("labeled object %v accessed outside a security region", o.labels)
		t.vm.emit(Event{Kind: EvViolation, Thread: uint64(t.task.TID), Op: "write", Err: err})
		panic(&Violation{Op: "write", Err: err})
	}
}
