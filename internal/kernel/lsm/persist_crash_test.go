package lsm

import (
	"errors"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
)

// These tests force a fault at each individual step of the shadow-write +
// flip label-persistence protocol and verify the recovery pass never
// leaves a once-labeled inode readable: every reachable crash state
// recovers to either the intended labels or quarantine.

// bootPersistFault boots a system whose module injects the given fault
// kind, always, at exactly the named persistence site.
func bootPersistFault(t *testing.T, site string, kind faultinject.Kind) (*kernel.Kernel, *Module, *kernel.Task, difc.Tag) {
	t.Helper()
	k, m, owner := boot(t)
	tag, err := k.AllocTag(owner)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(1)
	rates := faultinject.Rates{}
	switch kind {
	case faultinject.Error:
		rates.Error = 1
	case faultinject.Crash:
		rates.Crash = 1
	}
	plan.SetRates(site, rates)
	m.SetFaultInjector(plan)
	return k, m, owner, tag
}

// newRegularInodes returns the regular-file inodes present now but not in
// the before set (the file the test just created, even when the creating
// task died before receiving its descriptor).
func newRegularInodes(k *kernel.Kernel, before map[kernel.Ino]bool) []*kernel.Inode {
	var out []*kernel.Inode
	k.WalkInodes(func(ino *kernel.Inode) {
		if ino.Type == kernel.TypeRegular && !before[ino.Ino] {
			out = append(out, ino)
		}
	})
	return out
}

func snapshotInos(k *kernel.Kernel) map[kernel.Ino]bool {
	seen := make(map[kernel.Ino]bool)
	k.WalkInodes(func(ino *kernel.Inode) { seen[ino.Ino] = true })
	return seen
}

// verifier spawns a fresh task that holds the tag's capabilities and has
// raised its secrecy to read files labeled with it.
func verifier(t *testing.T, k *kernel.Kernel, m *Module, tag difc.Tag) *kernel.Task {
	t.Helper()
	v, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(v, "/tmp"); err != nil {
		t.Fatal(err)
	}
	m.GrantCapability(v, tag, difc.CapBoth)
	if err := k.SetTaskLabel(v, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	return v
}

// attackerDenied asserts a capability-less task sees exactly ENOENT for
// the path — never success, never EACCES.
func attackerDenied(t *testing.T, k *kernel.Kernel, path string) {
	t.Helper()
	at, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(at, path); err != kernel.ErrNoEnt {
		t.Errorf("attacker Stat(%s) = %v, want exactly ENOENT", path, err)
	}
	if _, err := k.Open(at, path, kernel.ORead); err != kernel.ErrNoEnt {
		t.Errorf("attacker Open(%s) = %v, want exactly ENOENT", path, err)
	}
}

func TestCrashAtShadowWriteQuarantines(t *testing.T) {
	// Crash during step 1 (shadow write): the shadow tears, no commit
	// record ever exists. The labels are unknowable, so recovery must
	// quarantine — even the tag owner cannot read the file afterwards.
	k, m, owner, tag := bootPersistFault(t, "persist.shadow", faultinject.Crash)
	before := snapshotInos(k)
	_, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if !errors.Is(err, kernel.ErrKilled) {
		t.Fatalf("create under shadow crash = %v, want EKILLED", err)
	}
	if !owner.Exited() {
		t.Fatal("crash fault did not kill the creating task")
	}
	m.SetFaultInjector(nil) // the machine rebooted; recovery runs clean
	st := m.RecoverLabels(k)
	if st.Quarantined != 1 {
		t.Fatalf("recovery stats = %+v, want exactly one quarantined inode", st)
	}
	// The torn-label file must be maximally restricted: the tag holder is
	// denied too, because the quarantine tag has no capability holders.
	for _, ino := range newRegularInodes(k, before) {
		labels := m.inodeState(ino).labels
		if !labels.S.Has(m.quarantineTag) {
			t.Errorf("recovered labels %v missing quarantine tag", labels)
		}
	}
	v := verifier(t, k, m, tag)
	if _, err := k.Open(v, "secret", kernel.ORead); err != kernel.ErrNoEnt {
		t.Errorf("tag holder Open(quarantined) = %v, want ENOENT", err)
	}
	attackerDenied(t, k, "/tmp/secret")
}

func TestCrashAtCommitFlipRollsForward(t *testing.T) {
	// Crash during step 2 (the flip): the commit record tears but the
	// shadow holds the full intended record. Recovery rolls forward to the
	// exact intended labels: the tag holder reads, the attacker does not.
	k, m, owner, tag := bootPersistFault(t, "persist.commit", faultinject.Crash)
	_, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if !errors.Is(err, kernel.ErrKilled) {
		t.Fatalf("create under commit crash = %v, want EKILLED", err)
	}
	m.SetFaultInjector(nil)
	st := m.RecoverLabels(k)
	if st.RolledForward != 1 || st.Quarantined != 0 {
		t.Fatalf("recovery stats = %+v, want exactly one rolled-forward inode", st)
	}
	v := verifier(t, k, m, tag)
	fd, err := k.Open(v, "secret", kernel.ORead)
	if err != nil {
		t.Fatalf("tag holder open after roll-forward = %v", err)
	}
	k.Close(v, fd)
	attackerDenied(t, k, "/tmp/secret")
}

func TestCrashAtShadowClearIsClean(t *testing.T) {
	// Crash during step 4 (clearing the shadow): the commit record is
	// already valid, so recovery just discards the leftover shadow.
	k, m, owner, tag := bootPersistFault(t, "persist.clear", faultinject.Crash)
	_, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if !errors.Is(err, kernel.ErrKilled) {
		t.Fatalf("create under clear crash = %v, want EKILLED", err)
	}
	m.SetFaultInjector(nil)
	st := m.RecoverLabels(k)
	if st.Quarantined != 0 || st.RolledForward != 0 {
		t.Fatalf("recovery stats = %+v, want the labeled inode classified clean", st)
	}
	v := verifier(t, k, m, tag)
	fd, err := k.Open(v, "secret", kernel.ORead)
	if err != nil {
		t.Fatalf("tag holder open after clean recovery = %v", err)
	}
	k.Close(v, fd)
	attackerDenied(t, k, "/tmp/secret")
}

func TestErrorAtShadowWriteRollsBackCreate(t *testing.T) {
	// A transient error (no crash) during persistence fails the create
	// cleanly: the entry is unlinked and the caller sees EIO, not a
	// half-created secret.
	k, m, owner, _ := bootPersistFault(t, "persist.shadow", faultinject.Error)
	tag2, _ := k.AllocTag(owner)
	_, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag2)})
	if !errors.Is(err, kernel.ErrIO) {
		t.Fatalf("create under shadow error = %v, want EIO", err)
	}
	if owner.Exited() {
		t.Fatal("transient error must not kill the task")
	}
	m.SetFaultInjector(nil)
	if _, err := k.Stat(owner, "secret"); err != kernel.ErrNoEnt {
		t.Errorf("failed create left an entry: Stat = %v, want ENOENT", err)
	}
}

// TestCrashUpdatePreservesCommittedLabels drives the protocol directly on
// an inode that already has a valid committed record and tears the update
// at the shadow step: the old record must win — last committed labels, not
// quarantine, not the half-written new ones.
func TestCrashUpdatePreservesCommittedLabels(t *testing.T) {
	k, m, owner := boot(t)
	tag, _ := k.AllocTag(owner)
	before := snapshotInos(k)
	fd, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if err != nil {
		t.Fatal(err)
	}
	k.Close(owner, fd)
	inos := newRegularInodes(k, before)
	if len(inos) != 1 {
		t.Fatalf("expected one new inode, got %d", len(inos))
	}
	ino := inos[0]

	plan := faultinject.NewPlan(1)
	plan.SetRates("persist.shadow", faultinject.Rates{Crash: 1})
	m.SetFaultInjector(plan)
	tag2, _ := k.AllocTag(owner)
	if err := m.persistCommit(ino, difc.Labels{S: difc.NewLabel(tag2)}); !errors.Is(err, kernel.ErrKilled) {
		t.Fatalf("update under shadow crash = %v, want EKILLED", err)
	}
	m.SetFaultInjector(nil)
	st := m.RecoverLabels(k)
	if st.Quarantined != 0 {
		t.Fatalf("recovery stats = %+v: torn update quarantined an inode with a valid commit", st)
	}
	got := m.inodeState(ino).labels
	if !got.S.Equal(difc.NewLabel(tag)) {
		t.Fatalf("recovered labels %v, want the last committed %v", got.S, difc.NewLabel(tag))
	}
}
