package difc

import "fmt"

// Labels pairs a secrecy label with an integrity label — the full security
// metadata of a principal or data object, written {S(s...),I(i...)} in the
// paper. The zero value is the unlabeled state {S(),I()}.
type Labels struct {
	S Label // secrecy label
	I Label // integrity label
}

// Unlabeled is the implicit label pair of every unlabeled resource.
var Unlabeled = Labels{}

// NewLabels builds a label pair from explicit secrecy and integrity sets.
func NewLabels(s, i Label) Labels { return Labels{S: s, I: i} }

// IsEmpty reports whether both labels are empty ({S(),I()}).
func (l Labels) IsEmpty() bool { return l.S.IsEmpty() && l.I.IsEmpty() }

// Equal reports whether both components match.
func (l Labels) Equal(other Labels) bool { return l.S.Equal(other.S) && l.I.Equal(other.I) }

// CanFlowTo reports whether information may flow from a source with labels
// l to a destination with labels dst without any label change:
//
//	secrecy (Bell–LaPadula):  Sx ⊆ Sy — no read up, no write down
//	integrity (Biba):         Iy ⊆ Ix — no read down, no write up
//
// (§3.2). Either endpoint may first make a flow feasible by changing its
// own labels under the label-change rule; that is CanChange's job.
func (l Labels) CanFlowTo(dst Labels) bool { return FlowAllowed(&l, &dst) }

// FlowAllowed is CanFlowTo on pointers: the same verdict, without copying
// either 144-byte label pair. Barriers that already hold both pairs call
// it first and build a CheckFlow error only when it says no.
func FlowAllowed(src, dst *Labels) bool {
	return src.S.subsetOf(&dst.S) && dst.I.subsetOf(&src.I)
}

// String renders the pair in the paper's {S(...),I(...)} notation.
func (l Labels) String() string {
	return fmt.Sprintf("{S%s,I%s}", l.S.String(), l.I.String())
}

// CanChange reports whether a principal holding caps may change one of its
// labels from the current set to the desired set. The paper's label-change
// rule (§3.2):
//
//	(L2 − L1) ⊆ Cp+  and  (L1 − L2) ⊆ Cp−
//
// Added tags need the plus capability, dropped tags the minus capability.
func CanChange(from, to Label, caps CapSet) bool {
	return to.coveredBy(&from, &caps.plus) && from.coveredBy(&to, &caps.minus)
}

// CanChangeLabels applies CanChange to both components of a label pair.
func CanChangeLabels(from, to Labels, caps CapSet) bool {
	return CanChange(from.S, to.S, caps) && CanChange(from.I, to.I, caps)
}

// CheckChangeLabels is CanChangeLabels with provenance: the returned
// *ChangeError names the first component whose change the capability set
// does not permit.
func CheckChangeLabels(op string, from, to Labels, caps CapSet) error {
	if err := CheckChange(op, from.S, to.S, caps); err != nil {
		return err
	}
	return CheckChange(op, from.I, to.I, caps)
}

// CanEnterRegion checks the security-region initialization rules (§4.3.2)
// for a principal with labels p and capabilities pc entering a region
// declared with labels r and capabilities rc:
//
//	(1) SR ⊆ (Cp+ ∪ SP)  and  IR ⊆ (Cp+ ∪ IP)
//	(2) CR ⊆ CP
//
// plus the drop half of the label-change rule: any tag the principal
// currently carries that the region omits is a declassification (or
// endorsement drop) and needs the minus capability. Figure 4's nested
// region {S(b), C(a−)} entered from {S(a,b)} type-checks precisely because
// a− is in the entering thread's capability set; without the drop check, a
// nested empty region would silently declassify the thread.
func CanEnterRegion(p Labels, pc CapSet, r Labels, rc CapSet) bool {
	return CheckEnterRegion(p, pc, r, rc) == nil
}

// CheckEnterRegion is CanEnterRegion with provenance: it returns nil when
// entry is legal and a *ChangeError naming the first violated condition
// and its offending tag delta otherwise. The Op field distinguishes the
// acquisition half ("region-enter"), the declassification half
// ("region-drop"), and the capability-subset condition ("region-caps").
func CheckEnterRegion(p Labels, pc CapSet, r Labels, rc CapSet) error {
	if err := CheckAcquire("region-enter", p.S, r.S, pc); err != nil {
		return err
	}
	if err := CheckAcquire("region-enter", p.I, r.I, pc); err != nil {
		return err
	}
	if !p.S.coveredBy(&r.S, &pc.minus) {
		return &ChangeError{Op: "region-drop", Check: "drop", From: p.S, To: r.S, Caps: pc, Missing: p.S.Minus(r.S).Minus(pc.minus)}
	}
	if !p.I.coveredBy(&r.I, &pc.minus) {
		return &ChangeError{Op: "region-drop", Check: "drop", From: p.I, To: r.I, Caps: pc, Missing: p.I.Minus(r.I).Minus(pc.minus)}
	}
	if !rc.plus.subsetOf(&pc.plus) || !rc.minus.subsetOf(&pc.minus) {
		missing := rc.plus.Minus(pc.plus).Union(rc.minus.Minus(pc.minus))
		return &ChangeError{Op: "region-caps", Check: "subset", From: rc.Plus(), To: rc.Minus(), Caps: pc, Missing: missing}
	}
	return nil
}

// FlowError describes a rejected information flow. It satisfies error and
// carries the labels on both sides so callers (and tests) can see exactly
// which rule failed.
type FlowError struct {
	Op   string // operation attempted, e.g. "read", "write", "send"
	Src  Labels // source labels
	Dst  Labels // destination labels
	Rule string // which rule failed: "secrecy" or "integrity"
}

// Error formats the violation.
func (e *FlowError) Error() string {
	return fmt.Sprintf("difc: %s: %s flow violation: %v -> %v", e.Op, e.Rule, e.Src, e.Dst)
}

// Delta returns the offending tag set of the violated rule: the secrecy
// tags the source carries beyond the destination, or the integrity tags
// the destination demands beyond the source. Telemetry provenance records
// it so a denial names not just the rule but the exact tags that fired it.
func (e *FlowError) Delta() Label {
	if e.Rule == "integrity" {
		return e.Dst.I.Minus(e.Src.I)
	}
	return e.Src.S.Minus(e.Dst.S)
}

// ChangeError describes a rejected label change (or label acquisition):
// the principal lacked the capabilities to move from From to To. Missing
// carries the exact tags for which the needed capability was absent, so a
// provenance record can name the offending delta.
type ChangeError struct {
	Op      string // operation attempted, e.g. "set_task_label", "create"
	Check   string // which check shape fired: "change", "acquire", "drop", "subset"
	From    Label  // current label
	To      Label  // requested label
	Caps    CapSet // the capability set the check ran against
	Missing Label  // tags lacking the required capability
}

// Error formats the violation.
func (e *ChangeError) Error() string {
	if e.Check == "subset" {
		return fmt.Sprintf("difc: %s: capability subset violation: need %v held for %v", e.Op, NewCapSet(e.From, e.To), e.Missing)
	}
	return fmt.Sprintf("difc: %s: label change %v -> %v denied: missing capability for %v", e.Op, e.From, e.To, e.Missing)
}

// CheckChange returns nil when the label-change rule permits from -> to
// under caps, and a *ChangeError naming the capability-less tags
// otherwise.
func CheckChange(op string, from, to Label, caps CapSet) error {
	if CanChange(from, to, caps) {
		return nil
	}
	missing := to.Minus(from).Minus(caps.plus).Union(from.Minus(to).Minus(caps.minus))
	return &ChangeError{Op: op, Check: "change", From: from, To: to, Caps: caps, Missing: missing}
}

// CheckAcquire returns nil when the principal could acquire label want
// given current label have and capability set caps (want ⊆ C+ ∪ have) —
// the acquisition half of the label-change rule used by labeled create
// and region entry — and a *ChangeError naming the unobtainable tags
// otherwise.
func CheckAcquire(op string, have, want Label, caps CapSet) error {
	if want.coveredBy(&caps.plus, &have) {
		return nil
	}
	missing := want.Minus(caps.plus.Union(have))
	return &ChangeError{Op: op, Check: "acquire", From: have, To: want, Caps: caps, Missing: missing}
}

// CheckFlow returns nil when information may flow src → dst, and a
// *FlowError naming the violated rule otherwise.
func CheckFlow(op string, src, dst Labels) error {
	if !src.S.subsetOf(&dst.S) {
		return &FlowError{Op: op, Src: src, Dst: dst, Rule: "secrecy"}
	}
	if !dst.I.subsetOf(&src.I) {
		return &FlowError{Op: op, Src: src, Dst: dst, Rule: "integrity"}
	}
	return nil
}
