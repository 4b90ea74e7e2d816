package jvm

import (
	"errors"
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/rt"
)

// hostThread returns a thread whose kernel task holds the credentials of
// mc's program (HostThread).
func hostThread(t testing.TB, mc *Machine) *rt.Thread {
	t.Helper()
	th, err := HostThread(mc.prog)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// bareThread returns a thread whose kernel task holds no capabilities: a
// program with no secure methods names none.
func bareThread(t testing.TB) *rt.Thread {
	t.Helper()
	th, err := HostThread(NewProgram(0))
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// secureOnly builds a program of one secure method sec with the given
// credentials and code.
func secureOnly(t *testing.T, labels difc.Labels, caps difc.CapSet, code []Instr) *Machine {
	t.Helper()
	p := NewProgram(0)
	p.Add(&Method{Name: "sec", Code: code, Secure: &SecureInfo{Labels: labels, Caps: caps}})
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic})
	if err != nil {
		t.Fatal(err)
	}
	mc.Trace = &TraceLog{}
	return mc
}

// TestRegionEntryTrapText pins the text of a refused region entry that
// reaches the host: rt's refusal, rendered only when read, wrapped in the
// trap.
func TestRegionEntryTrapText(t *testing.T) {
	mc := secureOnly(t, difc.Labels{S: difc.NewLabel(5000)}, difc.EmptyCapSet, NewAsm().Op(OpReturn).MustBuild())
	_, err := mc.Call(bareThread(t), "sec")
	var te *TrapError
	if !errors.As(err, &te) {
		t.Fatalf("Call = %v, want a *TrapError", err)
	}
	const want = "jvm: trap: rt: cannot enter security region {S{t5000},I{}} C() from {S{},I{}} C(): " +
		"difc: region-enter: label change {} -> {t5000} denied: missing capability for {t5000}"
	if got := err.Error(); got != want {
		t.Errorf("trap text\n got %q\nwant %q", got, want)
	}
}

// TestRegionAuthorityFromTask: a secure method's outermost entry is judged
// against the host thread's kernel task. A task with no capability for t7
// may not enter a region that asks for t7-; once the task holds t7+ and
// t7-, the same call is admitted.
func TestRegionAuthorityFromTask(t *testing.T) {
	mc := secureOnly(t, difc.Labels{}, difc.EmptyCapSet.Grant(7, difc.CapMinus), NewAsm().Op(OpReturn).MustBuild())
	th := bareThread(t)
	_, err := mc.Call(th, "sec")
	var te *TrapError
	if !errors.As(err, &te) {
		t.Fatalf("Call without t7 = %v, want a *TrapError", err)
	}
	if got := strings.Join(mc.Trace.Events, ";"); got != "deny-enter sec" {
		t.Errorf("trace without t7 = %q, want deny-enter sec", got)
	}

	th.GrantCapability(7, difc.CapBoth)
	mc.Trace.Events = nil
	if _, err := mc.Call(th, "sec"); err != nil {
		t.Fatalf("Call with t7+ t7- = %v, want admitted", err)
	}
	if got := strings.Join(mc.Trace.Events, ";"); got != "enter sec;exit sec" {
		t.Errorf("trace with t7 = %q, want enter sec;exit sec", got)
	}
}

// TestFatalTrapLeavesRegion: an exhausted instruction budget inside a
// secure method is not the program's to catch. It reaches the host as a
// *TrapError, the catch code does not run, and the thread ends outside
// every region with the exit traced.
func TestFatalTrapLeavesRegion(t *testing.T) {
	spin := NewAsm().Label("loop").Jmp("loop").MustBuild()
	mc := secureOnly(t, difc.Labels{S: difc.NewLabel(3)}, difc.EmptyCapSet, spin)
	mc.MaxInstructions = 1000
	th := hostThread(t, mc)
	_, err := mc.Call(th, "sec")
	var te *TrapError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Call = %v, want a budget *TrapError", err)
	}
	if th.Region() != nil {
		t.Error("thread still inside a region after the fatal trap")
	}
	if got := strings.Join(mc.Trace.Events, ";"); got != "enter sec;exit sec" {
		t.Errorf("trace = %q, want enter sec;exit sec", got)
	}
	if v := mc.Stats().Violations; v != 0 {
		t.Errorf("violations = %d, want 0: a fatal trap is not a violation", v)
	}
}

// TestSecureCallAllocs pins a host call of an empty secure method with
// tracing off at zero allocations: the region entry, the body and the
// exit record no trace event, so nothing may be formatted or boxed.
func TestSecureCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	mc := secureOnly(t, difc.Labels{}, difc.EmptyCapSet, NewAsm().Op(OpReturn).MustBuild())
	mc.Trace = nil
	th := hostThread(t, mc)
	call := func() {
		if _, err := mc.Call(th, "sec"); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if got := testing.AllocsPerRun(100, call); got != 0 {
		t.Errorf("a secure call allocates %v times, want 0", got)
	}
}
