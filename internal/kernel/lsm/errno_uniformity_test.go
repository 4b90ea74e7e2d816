package lsm

import (
	"errors"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// TestErrnoUniformity pins the fail-closed errno contract: to a task that
// cannot read a secret file, every path-based syscall must behave exactly
// as if the path did not exist. The error must be the identical ENOENT
// sentinel a genuinely absent path yields — a distinguishable EACCES would
// leak one bit (the name exists) per probe.
func TestErrnoUniformity(t *testing.T) {
	k, m, owner := boot(t)
	tag, _ := k.AllocTag(owner)
	fd, err := k.CreateFileLabeled(owner, "secret", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if err != nil {
		t.Fatal(err)
	}
	k.Close(owner, fd)

	attacker, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(attacker, "/tmp"); err != nil {
		t.Fatal(err)
	}

	// The reference error: what an honestly nonexistent path returns.
	_, ghostErr := k.Stat(attacker, "nosuchfile")
	if ghostErr != kernel.ErrNoEnt {
		t.Fatalf("Stat(nosuchfile) = %v, want the ENOENT sentinel", ghostErr)
	}

	probes := []struct {
		name string
		call func(path string) error
	}{
		{"Stat", func(p string) error { _, err := k.Stat(attacker, p); return err }},
		{"Open", func(p string) error { _, err := k.Open(attacker, p, kernel.ORead); return err }},
		{"Unlink", func(p string) error { return k.Unlink(attacker, p) }},
		{"GetXattr", func(p string) error { _, err := k.GetXattr(attacker, p, XattrLabel); return err }},
	}
	for _, pr := range probes {
		denied := pr.call("secret")
		absent := pr.call("nosuchfile")
		if denied != absent {
			t.Errorf("%s: denied=%v absent=%v — the two must be the identical error value", pr.name, denied, absent)
		}
		if denied != kernel.ErrNoEnt {
			t.Errorf("%s(secret) = %v, want exactly ENOENT", pr.name, denied)
		}
		if errors.Is(denied, kernel.ErrAccess) {
			t.Errorf("%s(secret) matches EACCES — leaks existence", pr.name)
		}
	}

	// The file must still be there for its rightful readers: the denials
	// above were policy, not deletion.
	taint(t, k, m, owner, difc.NewLabel(tag))
	if _, err := k.Stat(owner, "secret"); err != nil {
		t.Fatalf("owner Stat after probes = %v", err)
	}
}

// TestErrnoWriteDenialStaysEACCES pins the other half of the contract:
// write-only denials (integrity) stay EACCES. Existence is not secret
// there — the attacker can already list the directory — and a fake ENOENT
// would mislead legitimate tooling for no secrecy gain.
func TestErrnoWriteDenialStaysEACCES(t *testing.T) {
	k, _, user := boot(t)
	// /etc carries the admin integrity tag; an ordinary task may read it
	// but not create entries in it.
	if _, err := k.ReadDir(user, "/etc"); err != nil {
		t.Fatalf("read of integrity-protected directory = %v, want success", err)
	}
	err := k.Mkdir(user, "/etc/evil", 0o755)
	if !errors.Is(err, kernel.ErrAccess) {
		t.Fatalf("write-denied mkdir = %v, want EACCES", err)
	}
	if errors.Is(err, kernel.ErrNoEnt) {
		t.Fatal("write denial hidden as ENOENT: uniformity applies to read denials only")
	}
}
