package lsm

import (
	"bytes"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// TestLoadUserCapsFailsClosed drives every recovery path of the
// capability store (DESIGN.md §8): a file without the checksummed
// envelope is unverifiable and grants nothing; a torn primary rolls
// forward from a valid shadow and is repaired; two torn copies give no
// capabilities and no error; no copy at all is ENOENT.
func TestLoadUserCapsFailsClosed(t *testing.T) {
	k, m, owner := boot(t)
	tag, err := k.AllocTag(owner)
	if err != nil {
		t.Fatal(err)
	}
	caps := difc.EmptyCapSet.Grant(tag, difc.CapBoth)
	init := k.InitTask()
	install := func(name string, data []byte) {
		t.Helper()
		restore, err := m.raiseAdminIntegrity(k, init)
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		if err := ensureCapsDir(k, init); err != nil {
			t.Fatal(err)
		}
		if err := writeFileAll(k, init, capsDir+"/"+name, data); err != nil {
			t.Fatal(err)
		}
	}

	// Plain text parses as a capability set, but nothing vouches for it.
	install("carol", []byte(caps.FormatText()))
	shell, err := m.Login(k, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.taskState(shell).caps; got != difc.EmptyCapSet {
		t.Errorf("login over an envelope-less caps file holds %v, want none", got)
	}

	good := encodeCapsFile(caps)
	install("dave", good[:len(good)/2])
	install("dave.shadow", good)
	got, err := m.LoadUserCaps(k, init, "dave")
	if err != nil || got != caps {
		t.Fatalf("torn primary, valid shadow: LoadUserCaps = %v, %v; want %v", got, err, caps)
	}
	if primary, err := readFileAll(k, init, capsDir+"/dave"); err != nil || !bytes.Equal(primary, good) {
		t.Errorf("primary after roll-forward = %q, %v; want the shadow's bytes", primary, err)
	}
	if _, err := k.Stat(init, capsDir+"/dave.shadow"); err != kernel.ErrNoEnt {
		t.Errorf("shadow after roll-forward: Stat = %v, want ENOENT", err)
	}

	install("dave", good[:len(good)/2])
	install("dave.shadow", good[:len(good)-1])
	if got, err := m.LoadUserCaps(k, init, "dave"); err != nil || got != difc.EmptyCapSet {
		t.Errorf("both copies torn: LoadUserCaps = %v, %v; want no capabilities, nil", got, err)
	}

	if _, err := m.LoadUserCaps(k, init, "nobody"); err != kernel.ErrNoEnt {
		t.Errorf("no caps file: LoadUserCaps error = %v, want ENOENT", err)
	}
}
