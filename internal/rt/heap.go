package rt

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// the Java objects and arrays the paper instruments. The named fields are
// a list of immutable slots published through one atomic pointer, empty
// until the first write and searched linearly: every object in the repo
// holds at most a few fixed names (a Java object's field count is fixed
// by its class), so a scan costs less than hashing the name and the
// object pays nothing at rest for a map it never fills (DESIGN.md §2).
//
// A field read takes no lock: it loads the head and scans, so a barrier
// is a label check followed by a plain load, as in the paper. Writers
// serialize on mu and never change a slot a reader can reach: a write
// builds the slots it changes and publishes them with one atomic store,
// since an interface value written in place could tear under a
// concurrent read. The array part is read and written under mu.
type Object struct {
	labels  difc.Labels
	labeled bool

	mu     sync.Mutex // serializes field writers; guards elems
	fields atomic.Pointer[slot]
	elems  []any
}

// slot is one named field. A slot never changes once published.
type slot struct {
	name  string
	value any
	next  *slot
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

// rawGet reads a field without barriers (unsecured baseline, trusted
// declassifier internals, and the load behind every checked read).
func (o *Object) rawGet(field string) any {
	for s := o.fields.Load(); s != nil; s = s.next {
		if s.name == field {
			return s.value
		}
	}
	return nil
}

// rawSet publishes a new value for field. A new name is one slot pushed
// on the head; an existing name gets a new slot, behind copies of the
// slots before it, and shares the rest.
func (o *Object) rawSet(field string, v any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	head := o.fields.Load()
	n := 0
	for s := head; s != nil; s = s.next {
		if s.name == field {
			o.fields.Store(cloneSlots(head, n, &slot{name: field, value: v, next: s.next}))
			return
		}
		n++
	}
	o.fields.Store(&slot{name: field, value: v, next: head})
}

// cloneSlots copies the first n slots of the list at head into fresh
// slots, in one allocation, and links the last copy to tail.
func cloneSlots(head *slot, n int, tail *slot) *slot {
	if n == 0 {
		return tail
	}
	cp := make([]slot, n)
	for i, s := 0, head; i < n; i, s = i+1, s.next {
		cp[i] = slot{name: s.name, value: s.value, next: tail}
		if i > 0 {
			cp[i-1].next = &cp[i]
		}
	}
	return &cp[0]
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

// The raw accessors are the barrier-free reads and writes used by
// unsecured application variants (the Figure 9 baselines) and by trusted
// code moving values between unlabeled objects. They check no flow, so
// they serve unlabeled objects only: on a labeled object each raises a
// *Violation instead of touching it (fail closed), inside a region or
// outside. RawGet reads through the same lock-free rawGet as the checked
// read, so overhead comparisons isolate the security checks.

// RawGet is the barrier-free field read.
func (o *Object) RawGet(field string) any {
	o.refuseLabeled("rawGet")
	return o.rawGet(field)
}

// RawSet is the barrier-free field write.
func (o *Object) RawSet(field string, v any) {
	o.refuseLabeled("rawSet")
	o.rawSet(field, v)
}

// RawIndex is the barrier-free element read.
func (o *Object) RawIndex(i int) any {
	o.refuseLabeled("rawIndex")
	return o.rawIndex(i)
}

// RawSetIndex is the barrier-free element write.
func (o *Object) RawSetIndex(i int, v any) {
	o.refuseLabeled("rawSetIndex")
	o.rawSetIndex(i, v)
}

func (o *Object) refuseLabeled(op string) {
	if o.labeled {
		panic(&Violation{Op: op, Err: fmt.Errorf("raw access to labeled object %v", o.labels)})
	}
}

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
	r.act("alloc")
	r.thread.vm.stats.AllocBarriers.Add(1)
	l := r.labels
	if labels != nil {
		l = *labels
		r.check("alloc", r.allocConforms(l))
	}
	return &Object{labels: l, labeled: !l.IsEmpty()}
}

// AllocArray allocates an n-element array with the same labeling rules as
// Alloc.
func (r *Region) AllocArray(n int, labels *difc.Labels) *Object {
	r.act("alloc")
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
	r.act("copyAndLabel")
	r.check("copyAndLabel", difc.CheckChangeLabels("copyAndLabel", o.labels, labels, r.caps))
	r.thread.vm.emit(Event{Kind: EvCopyAndLabel, Thread: uint64(r.thread.task.TID), Labels: r.labels, From: o.labels, To: labels})
	// Under mu, so the copy's fields and elements come from one instant.
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := &Object{labels: labels, labeled: !labels.IsEmpty()}
	head := o.fields.Load()
	n := 0
	for s := head; s != nil; s = s.next {
		n++
	}
	cp.fields.Store(cloneSlots(head, n, nil)) // no slot shared with o
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

// readBarrier checks object -> thread flow (checkRead).
func (r *Region) readBarrier(o *Object) {
	r.act("read")
	r.thread.vm.stats.ReadBarriers.Add(1)
	r.check("read", checkRead(&o.labels, &r.labels))
}

// writeBarrier checks thread -> object flow (checkWrite).
func (r *Region) writeBarrier(o *Object) {
	r.act("write")
	r.thread.vm.stats.WriteBarriers.Add(1)
	r.check("write", checkWrite(&r.labels, &o.labels))
}

// --- barrier rules ---
// Each §5.1 barrier rule has one implementation. It takes the accessed
// object's label words (and the context's labels) and returns the denial,
// or nil. rt.Object's barriers call these functions, and so do the
// compiled barrier opcodes of the MiniJVM interpreter (package jvm),
// through the Thread methods below. The verdict is taken on pointers to
// the label pairs; the error, which copies them, is built only for a
// denial.

// checkRead is the read rule: a context labeled cur may read an object
// labeled obj only if obj's secrecy is within cur's and cur's integrity
// within obj's.
func checkRead(obj, cur *difc.Labels) error {
	if difc.FlowAllowed(obj, cur) {
		return nil
	}
	return difc.CheckFlow("read", *obj, *cur)
}

// checkWrite is the write rule: cur -> obj flow.
func checkWrite(cur, obj *difc.Labels) error {
	if difc.FlowAllowed(cur, obj) {
		return nil
	}
	return difc.CheckFlow("write", *cur, *obj)
}

// CheckOutside is the outside-region rule: code running outside every
// security region may not touch a labeled object.
func CheckOutside(obj *difc.Labels, labeled bool) error {
	if labeled {
		return fmt.Errorf("labeled object %v accessed outside a security region", *obj)
	}
	return nil
}

// CheckRead applies the read rule to an object labeled obj against the
// thread's current labels.
func (t *Thread) CheckRead(obj *difc.Labels) error { return checkRead(obj, t.labels()) }

// CheckWrite applies the write rule to an object labeled obj against the
// thread's current labels.
func (t *Thread) CheckWrite(obj *difc.Labels) error { return checkWrite(t.labels(), obj) }

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
	if t.inRegion() {
		t.region.readBarrier(o)
		return
	}
	t.vm.stats.ReadBarriers.Add(1)
	if err := CheckOutside(&o.labels, o.labeled); err != nil {
		t.raise("read", err)
	}
}

func (t *Thread) dynamicWriteBarrier(o *Object) {
	if t.inRegion() {
		t.region.writeBarrier(o)
		return
	}
	t.vm.stats.WriteBarriers.Add(1)
	if err := CheckOutside(&o.labels, o.labeled); err != nil {
		t.raise("write", err)
	}
}
