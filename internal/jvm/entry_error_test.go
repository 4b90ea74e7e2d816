package jvm

import (
	"errors"
	"testing"

	"laminar/internal/difc"
)

// TestRegionEntryTrapText pins the text of a refused region entry that
// reaches the host: the trap is rendered only when read, and must read
// exactly as it always has.
func TestRegionEntryTrapText(t *testing.T) {
	p := NewProgram(0)
	// Tag 5000 lies beyond the host's outermost-entry capabilities.
	sec := &Method{Name: "sec", NArgs: 0, NLocal: 0, Secure: &SecureInfo{
		Labels: difc.Labels{S: difc.NewLabel(5000)},
		Caps:   difc.EmptyCapSet,
	}}
	p.Add(sec)
	sec.Code = NewAsm().Op(OpReturn).MustBuild()
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mc.Call(mc.NewThread(), "sec")
	var te *TrapError
	if !errors.As(err, &te) {
		t.Fatalf("Call = %v, want a *TrapError", err)
	}
	const want = "jvm: trap: cannot enter security region sec with {S{t5000},I{}} C() from {S{},I{}}"
	if got := err.Error(); got != want {
		t.Errorf("trap text\n got %q\nwant %q", got, want)
	}
}
