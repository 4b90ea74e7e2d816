package rt

import (
	"errors"
	"testing"

	"laminar/internal/difc"
)

// TestSecureRefusalErrorPinned pins the observable shape of a refused
// region entry: the exact error text, the *difc.ChangeError reachable
// through errors.As, and the EvViolation audit event. A refusal at the
// acquisition check and one at the drop (declassification) check are
// both covered. The error is rendered lazily, so these literals are what
// guards the rendering against drift.
func TestSecureRefusalErrorPinned(t *testing.T) {
	vm, main := newVM(t)
	a, err := main.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	if a != 4 {
		t.Fatalf("first tag of a fresh kernel = %v, the literals below assume t4", a)
	}
	var events []Event
	vm.SetAudit(func(e Event) { events = append(events, e) })

	// Acquire: the thread holds a± but not t9999+.
	want := difc.Labels{S: difc.NewLabel(a, 9999)}
	err = main.Secure(want, difc.EmptyCapSet, func(*Region) { t.Error("body ran") }, nil)
	checkRefusal(t, err,
		"rt: cannot enter security region {S{t4,t9999},I{}} C() from {S{},I{}} C(t4+-): "+
			"difc: region-enter: label change {} -> {t4,t9999} denied: missing capability for {t9999}",
		"region-enter", "acquire", difc.NewLabel(9999))
	checkViolationEvent(t, events, err,
		"[tid 3] violation in {S{t4,t9999},I{}}: "+
			"difc: region-enter: label change {} -> {t4,t9999} denied: missing capability for {t9999}")

	// Drop: inside {S(a)} with only a+, a nested unlabeled region would
	// declassify a without a−.
	events = nil
	outer := difc.Labels{S: difc.NewLabel(a)}
	err = main.Secure(outer, difc.EmptyCapSet.Grant(a, difc.CapPlus), func(r *Region) {
		events = nil
		nerr := main.Secure(difc.Labels{}, difc.EmptyCapSet, func(*Region) { t.Error("nested body ran") }, nil)
		checkRefusal(t, nerr,
			"rt: cannot enter security region {S{},I{}} C() from {S{t4},I{}} C(t4+): "+
				"difc: region-drop: label change {t4} -> {} denied: missing capability for {t4}",
			"region-drop", "drop", difc.NewLabel(a))
		checkViolationEvent(t, events, nerr,
			"[tid 3] violation in {S{},I{}}: "+
				"difc: region-drop: label change {t4} -> {} denied: missing capability for {t4}")
	}, nil)
	if err != nil {
		t.Fatalf("outer region: %v", err)
	}
}

func checkRefusal(t *testing.T, err error, text, op, check string, missing difc.Label) {
	t.Helper()
	if err == nil {
		t.Fatal("entry succeeded")
	}
	if got := err.Error(); got != text {
		t.Errorf("error text\n got %q\nwant %q", got, text)
	}
	var ce *difc.ChangeError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As(*difc.ChangeError) failed on %T", err)
	}
	if ce.Op != op || ce.Check != check || !ce.Missing.Equal(missing) {
		t.Errorf("ChangeError = {Op:%q Check:%q Missing:%v}, want {%q %q %v}", ce.Op, ce.Check, ce.Missing, op, check, missing)
	}
}

// checkViolationEvent requires exactly one audit event since the last
// reset: the EvViolation for the refused entry, carrying the bare
// ChangeError (not the rt wrapper) and rendering to text.
func checkViolationEvent(t *testing.T, events []Event, err error, text string) {
	t.Helper()
	if len(events) != 1 {
		t.Fatalf("audit events = %v, want one violation", events)
	}
	e := events[0]
	if e.Kind != EvViolation || e.Op != "region-enter" {
		t.Errorf("event kind/op = %v/%q, want violation/region-enter", e.Kind, e.Op)
	}
	var ce *difc.ChangeError
	if !errors.As(err, &ce) || e.Err != error(ce) {
		t.Errorf("event Err = %v, want the ChangeError the caller unwraps to", e.Err)
	}
	if got := e.String(); got != text {
		t.Errorf("event text\n got %q\nwant %q", got, text)
	}
}
