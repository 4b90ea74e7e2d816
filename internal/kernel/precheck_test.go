package kernel_test

import (
	"errors"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// TestPrecheckWarmsVerdictCache pins Precheck, the check-only entry that
// rt.Region.Prefetch issues on region entry. An allowed descriptor
// returns nil and leaves a memoized verdict that the next write hits. A
// denied descriptor returns the same denial the write then gets. Among
// several descriptors the first error wins, a bad descriptor's EBADF
// included.
func TestPrecheckWarmsVerdictCache(t *testing.T) {
	k, _ := vcSystem()
	task, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := k.Open(task, "/tmp/precheck", kernel.OWrite|kernel.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := k.AllocTag(task)
	if err != nil {
		t.Fatal(err)
	}
	// A label change bumps the task's epoch: no verdict cached by the
	// open survives it, so only Precheck can warm the cache.
	if err := k.SetTaskLabel(task, kernel.Integrity, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetTaskLabel(task, kernel.Integrity, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if err := k.Precheck(task, kernel.MayWrite, fd); err != nil {
		t.Fatalf("Precheck of a writable file = %v", err)
	}
	h0, _, _ := difc.VerdictCacheStats()
	if _, err := k.Write(task, fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := difc.VerdictCacheStats(); h == h0 {
		t.Fatal("the write after Precheck missed the verdict cache")
	}

	// Tainted, the task may no longer write the unlabeled file.
	if err := k.SetTaskLabel(task, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	denied := k.Precheck(task, kernel.MayWrite, fd)
	_, werr := k.Write(task, fd, []byte("y"))
	if denied == nil || werr == nil || denied.Error() != werr.Error() {
		t.Fatalf("tainted Precheck = %v, write = %v: want the same denial", denied, werr)
	}

	const bad = kernel.FD(999)
	if err := k.Precheck(task, kernel.MayWrite, bad, fd); !errors.Is(err, kernel.ErrBadF) {
		t.Fatalf("Precheck(bad, fd) = %v, want EBADF first", err)
	}
	if err := k.Precheck(task, kernel.MayWrite, fd, bad); err == nil || err.Error() != denied.Error() {
		t.Fatalf("Precheck(fd, bad) = %v, want the denial first", err)
	}
}
