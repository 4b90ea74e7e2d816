package lsm

import (
	"errors"
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/kernel"
)

// boot builds a kernel with the Laminar module installed and system
// integrity labels applied, plus an unlabeled user task with no caps.
func boot(t *testing.T) (*kernel.Kernel, *Module, *kernel.Task) {
	t.Helper()
	m := New()
	k := kernel.New(kernel.WithSecurityModule(m))
	m.InstallSystemIntegrity(k)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	// Work in unlabeled /tmp: the system directories carry the admin
	// integrity tag, so an ordinary task cannot create entries there.
	if err := k.Chdir(user, "/tmp"); err != nil {
		t.Fatal(err)
	}
	return k, m, user
}

// taint raises the task's secrecy label to l using freshly granted plus
// capabilities (test helper playing the role of a security region entry).
func taint(t *testing.T, k *kernel.Kernel, m *Module, task *kernel.Task, l difc.Label) {
	t.Helper()
	for _, tag := range l.Tags() {
		m.GrantCapability(task, tag, difc.CapPlus)
	}
	if err := k.SetTaskLabel(task, kernel.Secrecy, l); err != nil {
		t.Fatal(err)
	}
}

func TestAllocTagGrantsBothCaps(t *testing.T) {
	k, m, user := boot(t)
	tag, err := k.AllocTag(user)
	if err != nil {
		t.Fatal(err)
	}
	if tag == difc.InvalidTag {
		t.Fatal("alloc returned invalid tag")
	}
	caps := m.TaskCaps(user)
	if !caps.Has(tag, difc.CapPlus) || !caps.Has(tag, difc.CapMinus) {
		t.Errorf("caps after alloc = %v", caps)
	}
	tag2, _ := k.AllocTag(user)
	if tag2 == tag {
		t.Error("tags must be unique")
	}
}

func TestSetTaskLabelRequiresCapability(t *testing.T) {
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.NewLabel(tag)
	if err := k.SetTaskLabel(user, kernel.Secrecy, secret); err != nil {
		t.Fatalf("raise with t+: %v", err)
	}
	if !m.TaskLabels(user).S.Equal(secret) {
		t.Errorf("labels = %v", m.TaskLabels(user))
	}
	// Drop t- and try to untaint: must fail.
	if err := k.DropCapabilities(user, []kernel.Capability{{Tag: tag, Kind: difc.CapMinus}}, false); err != nil {
		t.Fatal(err)
	}
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("untaint without t- = %v, want EPERM", err)
	}
}

func TestTaintedThreadCannotWriteUnlabeled(t *testing.T) {
	k, m, user := boot(t)
	_ = m
	// Pre-create the file while unlabeled.
	fd, err := k.Open(user, "out", kernel.OCreate|kernel.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := k.AllocTag(user)
	taint(t, k, m, user, difc.NewLabel(tag))
	if _, err := k.Write(user, fd, []byte("secret")); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("tainted write to unlabeled file = %v, want EACCES", err)
	}
	// After declassifying (t- still held), the write works.
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(user, fd, []byte("public")); err != nil {
		t.Errorf("write after declassify = %v", err)
	}
}

func TestLabeledFileReadRequiresTaint(t *testing.T) {
	k, _, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	fd, err := k.CreateFileLabeled(user, "cal", 0o600, secret)
	if err != nil {
		t.Fatal(err)
	}
	k.Write(user, fd, nil) // fails silently? no: file labeled, user unlabeled
	k.Close(user, fd)

	// Unlabeled reader is rejected — with ENOENT, not EACCES: a denied
	// name must be indistinguishable from an absent one.
	if _, err := k.Open(user, "cal", kernel.ORead); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("unlabeled open of labeled file = %v, want ENOENT", err)
	}
	// Tainted reader succeeds.
	if err := k.SetTaskLabel(user, kernel.Secrecy, secret.S); err != nil {
		t.Fatal(err)
	}
	rfd, err := k.Open(user, "cal", kernel.ORead)
	if err != nil {
		t.Fatalf("tainted open = %v", err)
	}
	if _, err := k.Read(user, rfd, make([]byte, 4)); err != nil {
		t.Errorf("tainted read = %v", err)
	}
	// And the tainted reader cannot write /dev/null (unlabeled sink).
	nfd, err := k.Open(user, "/dev/null", kernel.OWrite)
	if err == nil {
		if _, werr := k.Write(user, nfd, []byte("leak")); !errors.Is(werr, kernel.ErrAccess) {
			t.Errorf("tainted write to /dev/null = %v, want EACCES", werr)
		}
	}
}

func TestCreateLabeledInUnlabeledDirWhileTaintedFails(t *testing.T) {
	// §5.2: a principal with secrecy {a} may not create a file named in an
	// unlabeled directory, because the name leaks; it must pre-create.
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	taint(t, k, m, user, secret.S)
	if _, err := k.CreateFileLabeled(user, "leakname", 0o600, secret); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("labeled create by tainted task in unlabeled dir = %v, want EACCES", err)
	}
}

func TestLabeledCreateConditions(t *testing.T) {
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	other := difc.Tag(0xdead) // a tag the user holds no capability for

	// Missing capability for the file's secrecy label.
	if _, err := k.CreateFileLabeled(user, "f1", 0o600, difc.Labels{S: difc.NewLabel(other)}); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("create with uncapable label = %v, want EPERM", err)
	}
	// Legal: user holds tag+.
	fd, err := k.CreateFileLabeled(user, "f2", 0o600, difc.Labels{S: difc.NewLabel(tag)})
	if err != nil {
		t.Fatalf("legal labeled create = %v", err)
	}
	k.Close(user, fd)

	// Condition (1): a tainted creator cannot make a *less* secret file.
	taint(t, k, m, user, difc.NewLabel(tag))
	if _, err := k.CreateFileLabeled(user, "f3", 0o600, difc.Labels{}); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("tainted create of unlabeled file = %v, want EPERM", err)
	}
}

func TestLabeledDirectoryTree(t *testing.T) {
	// Secrecy increases root -> leaves: a labeled dir can hold labeled
	// files, and a tainted task can create entries inside it.
	k, _, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	if err := k.MkdirLabeled(user, "box", 0o700, secret); err != nil {
		t.Fatal(err)
	}
	if err := k.SetTaskLabel(user, kernel.Secrecy, secret.S); err != nil {
		t.Fatal(err)
	}
	// Now tainted: creating inside the labeled dir is fine (writes a
	// directory at the same secrecy).
	fd, err := k.Open(user, "box/data", kernel.OCreate|kernel.OWrite)
	if err != nil {
		t.Fatalf("tainted create inside labeled dir = %v", err)
	}
	if _, err := k.Write(user, fd, []byte("s")); err != nil {
		t.Errorf("write = %v", err)
	}
	k.Close(user, fd)
	// Declassify and verify the dir listing is now unreadable... the
	// unlabeled task cannot read the labeled directory.
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadDir(user, "box"); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("unlabeled ReadDir of labeled dir = %v, want ENOENT", err)
	}
}

func TestIntegritySystemDirectories(t *testing.T) {
	k, m, user := boot(t)
	// A task carrying its own integrity tag cannot resolve absolute
	// paths, because / carries only the admin integrity tag (§5.2).
	itag, _ := k.AllocTag(user)
	if err := k.SetTaskLabel(user, kernel.Integrity, difc.NewLabel(itag)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(user, "/etc"); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("integrity-labeled task stat(/etc) = %v, want ENOENT", err)
	}
	// Relative paths from an unlabeled cwd still work.
	if err := k.SetTaskLabel(user, kernel.Integrity, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(user, "/etc"); err != nil {
		t.Errorf("unlabeled task stat(/etc) = %v (trusting admin should work)", err)
	}
	_ = m
}

func TestIntegrityNoReadDown(t *testing.T) {
	k, m, user := boot(t)
	itag, _ := k.AllocTag(user)
	high := difc.Labels{I: difc.NewLabel(itag)}
	// Create a plain low-integrity file, while unlabeled.
	lowFD, _ := k.Open(user, "lowfile", kernel.OCreate|kernel.OWrite|kernel.ORead)
	if _, err := k.Write(user, lowFD, []byte("low")); err != nil {
		t.Fatal(err)
	}
	k.Seek(user, lowFD, 0)

	// Pre-create the endorsed plugin while unlabeled (holding itag+
	// satisfies the endorsement condition), keeping the descriptor.
	plugFD, err := k.CreateFileLabeled(user, "plugin", 0o600, high)
	if err != nil {
		t.Fatal(err)
	}
	// Writing endorsed content requires actually carrying the integrity:
	// the per-operation check rejects the unlabeled writer.
	if _, err := k.Write(user, plugFD, []byte("code")); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("unendorsed write to endorsed file = %v, want EACCES", err)
	}
	// Raise to high integrity; the held descriptors now show both rules.
	if err := k.SetTaskLabel(user, kernel.Integrity, high.I); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(user, plugFD, []byte("code")); err != nil {
		t.Errorf("endorsed write = %v", err)
	}
	// No read down: the high-integrity task may not read the low file,
	// even through an already-open descriptor.
	if _, err := k.Read(user, lowFD, make([]byte, 4)); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("high-integrity read of low file = %v, want EACCES (no read down)", err)
	}
	// Drop endorsement; the unlabeled task may read the endorsed file but
	// not write it (no write up). Both via fresh path opens: traversal
	// works again at empty integrity.
	if err := k.SetTaskLabel(user, kernel.Integrity, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Open(user, "plugin", kernel.ORead); err != nil {
		t.Errorf("low read of endorsed file = %v (reading up is legal)", err)
	}
	if _, err := k.Open(user, "plugin", kernel.OWrite); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("low write to endorsed file = %v, want EACCES (no write up)", err)
	}
	_ = m
}

func TestExecIntegrity(t *testing.T) {
	// The scheduling server cannot execute a plugin whose integrity label
	// is lower than the server's (§3.3).
	k, _, user := boot(t)
	itag, _ := k.AllocTag(user)
	fd, _ := k.Open(user, "evil", kernel.OCreate|kernel.OWrite)
	k.Close(user, fd)
	if err := k.SetTaskLabel(user, kernel.Integrity, difc.NewLabel(itag)); err != nil {
		t.Fatal(err)
	}
	if err := k.Exec(user, "evil"); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("exec of low-integrity file = %v, want ENOENT", err)
	}
}

func TestPipeSilentDropOnLabelMismatch(t *testing.T) {
	k, m, user := boot(t)
	r, w, err := k.Pipe(user) // unlabeled pipe
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := k.AllocTag(user)
	taint(t, k, m, user, difc.NewLabel(tag))
	// Tainted write to unlabeled pipe: silently dropped, reports success.
	if n, err := k.Write(user, w, []byte("secret")); err != nil || n != 6 {
		t.Fatalf("pipe write = %d, %v (must appear to succeed)", n, err)
	}
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(user, r, make([]byte, 8)); !errors.Is(err, kernel.ErrAgain) {
		t.Errorf("read after dropped write = %v, want EAGAIN", err)
	}
}

func TestPipeLabeledFlow(t *testing.T) {
	// A pipe created by a tainted task carries the taint; equally tainted
	// peers can use it, unlabeled ones cannot read it.
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	l := difc.NewLabel(tag)
	taint(t, k, m, user, l)
	r, w, err := k.Pipe(user)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := k.Write(user, w, []byte("x")); err != nil || n != 1 {
		t.Fatalf("tainted write to tainted pipe = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if n, err := k.Read(user, r, buf); err != nil || n != 1 {
		t.Errorf("tainted read = %d, %v", n, err)
	}
	// Untaint; reading the tainted pipe must now fail.
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	k.Write(user, w, []byte("y")) // silently dropped (unlabeled -> labeled is fine actually)
	if _, err := k.Read(user, r, buf); !errors.Is(err, kernel.ErrAccess) {
		t.Errorf("unlabeled read of labeled pipe = %v, want EACCES", err)
	}
}

func TestSignalFlow(t *testing.T) {
	k, m, alice := boot(t)
	bob, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := k.AllocTag(alice)
	taint(t, k, m, alice, difc.NewLabel(tag))
	// Tainted alice cannot signal unlabeled bob.
	if err := k.Kill(alice, bob.TID, kernel.SIGUSR1); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("tainted signal to unlabeled = %v, want EPERM", err)
	}
	// Unlabeled bob can signal tainted alice (flow up is fine).
	if err := k.Kill(bob, alice.TID, kernel.SIGUSR1); err != nil {
		t.Errorf("unlabeled signal to tainted = %v", err)
	}
}

func TestForkInheritance(t *testing.T) {
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	taint(t, k, m, user, difc.NewLabel(tag))
	child, err := k.Fork(user, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.TaskLabels(child).Equal(m.TaskLabels(user)) {
		t.Error("child labels differ from parent")
	}
	if m.TaskCaps(child) != m.TaskCaps(user) {
		t.Error("child caps differ from parent with nil keep")
	}
	// Restricted fork.
	only := []kernel.Capability{{Tag: tag, Kind: difc.CapPlus}}
	child2, err := k.Fork(user, only)
	if err != nil {
		t.Fatal(err)
	}
	if m.TaskCaps(child2).Has(tag, difc.CapMinus) {
		t.Error("restricted child kept minus capability")
	}
	// Keep set exceeding parent's caps is rejected.
	bad := []kernel.Capability{{Tag: difc.Tag(0xbeef), Kind: difc.CapPlus}}
	if _, err := k.Fork(user, bad); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("fork with excess keep = %v, want EPERM", err)
	}
}

func TestDropCapabilitiesTemporaryAndRestore(t *testing.T) {
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	drop := []kernel.Capability{{Tag: tag, Kind: difc.CapMinus}}
	if err := k.DropCapabilities(user, drop, true); err != nil {
		t.Fatal(err)
	}
	if m.TaskCaps(user).Has(tag, difc.CapMinus) {
		t.Error("temporary drop did not take effect")
	}
	if err := k.RestoreCapabilities(user); err != nil {
		t.Fatal(err)
	}
	if !m.TaskCaps(user).Has(tag, difc.CapMinus) {
		t.Error("restore did not recover capability")
	}
	// Global drop is permanent even after a pending temporary drop.
	if err := k.DropCapabilities(user, drop, true); err != nil {
		t.Fatal(err)
	}
	if err := k.DropCapabilities(user, drop, false); err != nil {
		t.Fatal(err)
	}
	if err := k.RestoreCapabilities(user); err != nil {
		t.Fatal(err)
	}
	if m.TaskCaps(user).Has(tag, difc.CapMinus) {
		t.Error("global drop resurrected by restore")
	}
}

func TestDropLabelTCB(t *testing.T) {
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	// Taint user with a label it cannot drop.
	if err := k.DropCapabilities(user, []kernel.Capability{{Tag: tag, Kind: difc.CapMinus}}, false); err != nil {
		t.Fatal(err)
	}
	taint(t, k, m, user, difc.NewLabel(tag))
	// user itself cannot call drop_label_tcb.
	if err := k.DropLabelTCB(user, user.TID); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("non-tcb drop_label_tcb = %v, want EPERM", err)
	}
	// A tcb thread in the same process can.
	vm, err := k.Fork(user, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterTCBThread(vm)
	if err := k.DropLabelTCB(vm, user.TID); err != nil {
		t.Fatalf("tcb drop = %v", err)
	}
	if !m.TaskLabels(user).IsEmpty() {
		t.Errorf("labels after tcb drop = %v", m.TaskLabels(user))
	}
	// A tcb thread in a different process cannot.
	taint(t, k, m, user, difc.NewLabel(tag))
	outsider, _ := k.Spawn(k.InitTask(), []kernel.Capability{})
	m.RegisterTCBThread(outsider)
	if err := k.DropLabelTCB(outsider, user.TID); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("cross-process tcb drop = %v, want EPERM", err)
	}
}

func TestWriteCapabilityOverPipe(t *testing.T) {
	k, m, alice := boot(t)
	bob, _ := k.Spawn(k.InitTask(), []kernel.Capability{})
	tag, _ := k.AllocTag(alice)

	r, w, err := k.Pipe(alice)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := k.DupTo(alice, r, bob)
	if err != nil {
		t.Fatal(err)
	}
	// Alice sends a+ to Bob.
	if err := k.WriteCapability(alice, kernel.Capability{Tag: tag, Kind: difc.CapPlus}, w); err != nil {
		t.Fatal(err)
	}
	got, err := k.ReadCapability(bob, rb)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != tag || got.Kind != difc.CapPlus {
		t.Errorf("received %v", got)
	}
	if !m.TaskCaps(bob).Has(tag, difc.CapPlus) {
		t.Error("bob did not gain the capability")
	}
	// Sending a capability you do not hold fails.
	wb, err := k.DupTo(alice, w, bob)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.WriteCapability(bob, kernel.Capability{Tag: tag, Kind: difc.CapMinus}, wb); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("send unheld capability = %v, want EPERM", err)
	}
	// Empty queue.
	if _, err := k.ReadCapability(bob, rb); !errors.Is(err, kernel.ErrAgain) {
		t.Errorf("empty cap read = %v, want EAGAIN", err)
	}
	// Wrong fd type.
	fd, _ := k.Open(alice, "/tmp/f", kernel.OCreate|kernel.OWrite)
	if err := k.WriteCapability(alice, kernel.Capability{Tag: tag, Kind: difc.CapPlus}, fd); !errors.Is(err, kernel.ErrInval) {
		t.Errorf("cap write on regular fd = %v, want EINVAL", err)
	}
}

func TestWriteCapabilitySilentDropOnFlow(t *testing.T) {
	k, m, alice := boot(t)
	tag, _ := k.AllocTag(alice)
	r, w, _ := k.Pipe(alice) // unlabeled pipe
	taint(t, k, m, alice, difc.NewLabel(tag))
	// Tainted sender to unlabeled pipe: call succeeds, nothing queued.
	if err := k.WriteCapability(alice, kernel.Capability{Tag: tag, Kind: difc.CapPlus}, w); err != nil {
		t.Fatalf("cap write = %v (must appear to succeed)", err)
	}
	if err := k.SetTaskLabel(alice, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadCapability(alice, r); !errors.Is(err, kernel.ErrAgain) {
		t.Errorf("cap read after silent drop = %v, want EAGAIN", err)
	}
}

func TestXattrPersistence(t *testing.T) {
	k, _, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	before := snapshotInos(k)
	fd, err := k.CreateFileLabeled(user, "persist", 0o600, secret)
	if err != nil {
		t.Fatal(err)
	}
	k.Close(user, fd)
	// The label round-trips through the commit record. Taint to read it.
	if err := k.SetTaskLabel(user, kernel.Secrecy, secret.S); err != nil {
		t.Fatal(err)
	}
	data, err := k.GetXattr(user, "persist", XattrLabel)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := durable.Open(recMagic, data)
	if err != nil {
		t.Fatal(err)
	}
	l, err := decodeLabelPayload(payload)
	if err != nil || !l.S.Equal(secret.S) || !l.I.IsEmpty() {
		t.Errorf("persisted labels = %v, %v; want %v", l, err, secret)
	}
	// A clean create leaves the commit record as the inode's only xattr:
	// the shadow is cleared and nothing else is written.
	inos := newRegularInodes(k, before)
	if len(inos) != 1 {
		t.Fatalf("new regular inodes = %d, want 1", len(inos))
	}
	if names := inos[0].ListXattrs(); len(names) != 1 || names[0] != XattrLabel {
		t.Errorf("xattrs after clean create = %v, want only %s", names, XattrLabel)
	}
}

func TestLoginPersistentCaps(t *testing.T) {
	k, m, _ := boot(t)
	tag := difc.Tag(77)
	caps := difc.EmptyCapSet.Grant(tag, difc.CapBoth)
	if err := m.SaveUserCaps(k, k.InitTask(), "alice", caps); err != nil {
		t.Fatal(err)
	}
	shell, err := m.Login(k, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if m.TaskCaps(shell) != caps {
		t.Errorf("shell caps = %v, want %v", m.TaskCaps(shell), caps)
	}
	if shell.User != "alice" {
		t.Errorf("shell user = %q", shell.User)
	}
	// Home directory exists and is the cwd.
	if _, err := k.Stat(k.InitTask(), "/home/alice"); err != nil {
		t.Errorf("home missing: %v", err)
	}
	// A user with no caps file logs in with empty caps.
	shell2, err := m.Login(k, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if m.TaskCaps(shell2) != difc.EmptyCapSet {
		t.Errorf("bob caps = %v", m.TaskCaps(shell2))
	}
}

func TestRevocationByRelabel(t *testing.T) {
	// §4.4: revoking access means allocating a new tag and relabeling.
	k, m, owner := boot(t)
	oldTag, _ := k.AllocTag(owner)
	fd, err := k.CreateFileLabeled(owner, "doc", 0o600, difc.Labels{S: difc.NewLabel(oldTag)})
	if err != nil {
		t.Fatal(err)
	}
	k.Close(owner, fd)
	// Friend got oldTag+.
	friend, _ := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err := k.Chdir(friend, "/tmp"); err != nil {
		t.Fatal(err)
	}
	m.GrantCapability(friend, oldTag, difc.CapPlus)
	if err := k.SetTaskLabel(friend, kernel.Secrecy, difc.NewLabel(oldTag)); err != nil {
		t.Fatal(err)
	}
	// friend must chdir to owner's cwd to resolve the relative name; use
	// absolute home of init (both spawned from init cwd "/").
	if _, err := k.Open(friend, "doc", kernel.ORead); err != nil {
		t.Fatalf("friend open before revocation = %v", err)
	}
	// Owner revokes: new tag, new file, delete old.
	newTag, _ := k.AllocTag(owner)
	fd, err = k.CreateFileLabeled(owner, "doc2", 0o600, difc.Labels{S: difc.NewLabel(newTag)})
	if err != nil {
		t.Fatal(err)
	}
	k.Close(owner, fd)
	if err := k.Unlink(owner, "doc"); err != nil {
		t.Fatal(err)
	}
	// Friend cannot enter the new label, and the old file is gone.
	if err := k.SetTaskLabel(friend, kernel.Secrecy, difc.NewLabel(newTag)); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("friend raising to new tag = %v, want EPERM", err)
	}
	if _, err := k.Open(friend, "doc", kernel.ORead); !errors.Is(err, kernel.ErrNoEnt) {
		t.Errorf("old file open = %v, want ENOENT", err)
	}
}

func TestHookCallsCounted(t *testing.T) {
	k, _, user := boot(t)
	before := k.HookCalls()
	k.Stat(user, "/etc")
	if k.HookCalls() == before {
		t.Error("stat did not exercise hooks")
	}
}

func TestModuleName(t *testing.T) {
	k, m, _ := boot(t)
	if m.Name() != "laminar" || !strings.Contains(k.String(), "lsm=laminar") {
		t.Errorf("module name = %q, kernel = %v", m.Name(), k)
	}
	if m.tcbTag == m.adminTag {
		t.Error("tcb and admin tags must differ")
	}
}

func TestLabelsSurviveSecurityBlobLoss(t *testing.T) {
	// Labels persist in xattrs (as on ext3); if the in-memory security
	// blob is lost — module restart, cache eviction — enforcement must
	// rebuild it from the inode's attributes.
	k, _, user := boot(t)
	tag, _ := k.AllocTag(user)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	fd, err := k.CreateFileLabeled(user, "durable", 0o600, secret)
	if err != nil {
		t.Fatal(err)
	}
	k.Close(user, fd)

	// Simulate the blob loss: walk to the inode and clear its Security
	// field (the kernel's opaque blob pointer).
	tmp, ok := k.Root().Child("tmp")
	if !ok {
		t.Fatal("/tmp missing")
	}
	ino, ok := tmp.Child("durable")
	if !ok {
		t.Fatal("file missing")
	}
	ino.Security = nil

	// An unlabeled open must still be rejected: the label comes back
	// from the xattr.
	if _, err := k.Open(user, "durable", kernel.ORead); !errors.Is(err, kernel.ErrNoEnt) {
		t.Fatalf("open after blob loss = %v, want ENOENT", err)
	}
	// And the rightful owner still gets in.
	if err := k.SetTaskLabel(user, kernel.Secrecy, secret.S); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Open(user, "durable", kernel.ORead); err != nil {
		t.Errorf("tainted open after blob loss = %v", err)
	}
}

func TestMultithreadedProcessWithoutVMSharesLabels(t *testing.T) {
	// §4.1: "All threads in multithreaded processes without a trusted VM
	// must have the same labels and capabilities." A single-threaded
	// process changes labels freely; once it forks a sibling thread (no
	// tcb registered), per-thread label changes are refused.
	k, m, user := boot(t)
	tag, _ := k.AllocTag(user)
	l := difc.NewLabel(tag)

	// Single-threaded: fine.
	if err := k.SetTaskLabel(user, kernel.Secrecy, l); err != nil {
		t.Fatalf("single-threaded label change: %v", err)
	}
	if err := k.SetTaskLabel(user, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatal(err)
	}

	// Fork a sibling into the SAME process.
	sibling, err := k.Fork(user, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetTaskLabel(user, kernel.Secrecy, l); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("multithreaded untrusted label change = %v, want EPERM", err)
	}

	// Registering a trusted VM thread lifts the restriction.
	m.RegisterTCBThread(sibling)
	if err := k.SetTaskLabel(user, kernel.Secrecy, l); err != nil {
		t.Errorf("label change with trusted VM = %v", err)
	}

	// The sibling exiting returns an untrusted process to freedom too
	// (back to single-threaded) — exercised via a fresh process.
	solo, _ := k.Spawn(k.InitTask(), []kernel.Capability{})
	peer, _ := k.Fork(solo, nil)
	k.Exit(peer)
	tag2, _ := k.AllocTag(solo)
	if err := k.SetTaskLabel(solo, kernel.Secrecy, difc.NewLabel(tag2)); err != nil {
		t.Errorf("label change after sibling exit = %v", err)
	}
}
