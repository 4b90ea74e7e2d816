package lsm

import (
	"testing"

	"laminar/internal/difc"
)

// labeledCreateAllocs is the allocation count of one labeled create,
// close and unlink cycle. The create persists a two-tag label record
// through the shadow-write + flip protocol, so the pin covers the
// record store's write path as the file-churn workload drives it. The
// syscall guards and the path walk allocate nothing.
const labeledCreateAllocs = 12

// TestLabeledCreateAllocs pins the allocations of a labeled
// CreateFileLabeled: routing label records through the shared record
// store must not cost the create path an allocation.
func TestLabeledCreateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	k, _, user := boot(t)
	a, _ := k.AllocTag(user)
	b, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(a, b)}
	got := testing.AllocsPerRun(200, func() {
		fd, err := k.CreateFileLabeled(user, "churn", 0o600, secret)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Close(user, fd); err != nil {
			t.Fatal(err)
		}
		if err := k.Unlink(user, "churn"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per labeled create, close and unlink: %v", got)
	if got > labeledCreateAllocs {
		t.Fatalf("labeled create allocates %v, want at most %v", got, labeledCreateAllocs)
	}
}
