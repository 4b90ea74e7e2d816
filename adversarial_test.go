// Adversarial scenarios: attacks the DIFC model must stop, exercised
// through the public API. Each test plays a malicious program and asserts
// the enforcement holds.
package laminar_test

import (
	"errors"
	"testing"

	"laminar"
	"laminar/internal/kernel"
)

func adversarySystem(t *testing.T) (*laminar.System, *laminar.Thread, laminar.Tag) {
	t.Helper()
	sys := laminar.NewSystem()
	shell, err := sys.Login("victim")
	if err != nil {
		t.Fatal(err)
	}
	_, th, err := sys.LaunchVM(shell)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel().Chdir(th.Task(), "/tmp"); err != nil {
		t.Fatal(err)
	}
	tag, err := th.CreateTag()
	if err != nil {
		t.Fatal(err)
	}
	return sys, th, tag
}

// TestAttackConfusedDeputy: a privileged thread (holding the victim's
// capability) is tricked into running attacker-controlled code inside a
// region. The attacker's code can read the secret but every path to an
// unlabeled sink stays closed — the deputy's privilege does not launder
// the data.
func TestAttackConfusedDeputy(t *testing.T) {
	sys, deputy, tag := adversarySystem(t)
	secret := laminar.Labels{S: laminar.NewLabel(tag)}
	var vault *laminar.Object
	deputy.Secure(secret, laminar.EmptyCapSet, func(r *laminar.Region) {
		vault = r.Alloc(nil)
		r.Set(vault, "pin", 9999)
	}, nil)

	exfil := laminar.NewObject() // attacker-visible
	attackerCode := func(r *laminar.Region) {
		pin := r.Get(vault, "pin") // deputy's label allows the read
		// Attempt 1: direct write down.
		func() {
			defer func() { recover() }()
			r.Set(exfil, "pin", pin)
		}()
		// Attempt 2: static variable.
		func() {
			defer func() { recover() }()
			r.SetStatic("exfil", pin)
		}()
		// Attempt 3: unlabeled file.
		if fd, err := r.OpenFile("exfil.txt", laminar.OCreate|laminar.OWrite); err == nil {
			r.WriteFile(fd, []byte("9999"))
			r.CloseFile(fd)
		}
		// Attempt 4: copyAndLabel without the minus capability.
		func() {
			defer func() { recover() }()
			r.CopyAndLabel(vault, laminar.Labels{})
		}()
	}
	// The deputy runs the attacker's code WITHOUT granting it the minus
	// capability (the deputy only holds tag+ inside the region).
	deputy.Secure(secret, laminar.EmptyCapSet, attackerCode, func(r *laminar.Region, e any) {})

	if exfil.RawGet("pin") != nil {
		t.Error("attack 1 leaked via object")
	}
	if deputy.GetStatic("exfil") != nil {
		t.Error("attack 2 leaked via static")
	}
	if _, err := sys.Kernel().Open(deputy.Task(), "exfil.txt", laminar.ORead); err == nil {
		st, _ := sys.Kernel().Stat(deputy.Task(), "exfil.txt")
		if st.Size > 0 {
			t.Error("attack 3 leaked via file")
		}
	}
}

// TestAttackCapabilityForgery: gaining a capability requires alloc_tag,
// fork inheritance, or write_capability — an attacker cannot mint one for
// someone else's tag.
func TestAttackCapabilityForgery(t *testing.T) {
	sys, victim, tag := adversarySystem(t)
	attacker, err := sys.Login("attacker")
	if err != nil {
		t.Fatal(err)
	}
	_, ath, err := sys.LaunchVM(attacker)
	if err != nil {
		t.Fatal(err)
	}
	// Allocating new tags gives capabilities only for THOSE tags.
	for i := 0; i < 8; i++ {
		if _, err := ath.CreateTag(); err != nil {
			t.Fatal(err)
		}
	}
	if caps := sys.Module().TaskCaps(ath.Task()); caps.Has(tag, laminar.CapPlus) || caps.Has(tag, laminar.CapMinus) {
		t.Fatal("attacker minted the victim's capability")
	}
	if err := ath.Secure(laminar.Labels{S: laminar.NewLabel(tag)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		t.Error("attacker entered the victim's label")
	}, nil); err == nil {
		t.Error("entry not rejected")
	}
	_ = victim
}

// TestAttackPipeProbe: a tainted process tries to use pipe delivery
// status as a covert channel to signal an unlabeled accomplice. Silent
// drops deny the probe: the sender cannot observe whether delivery
// happened, and the receiver sees only EAGAIN either way.
func TestAttackPipeProbe(t *testing.T) {
	sys, th, tag := adversarySystem(t)
	k := sys.Kernel()
	r0, w0, err := k.Pipe(th.Task())
	if err != nil {
		t.Fatal(err)
	}
	secret := laminar.Labels{S: laminar.NewLabel(tag)}
	// Send "bit=1" while tainted: same observable result as not sending.
	var sendResult1, sendResult2 int
	th.Secure(secret, laminar.EmptyCapSet, func(r *laminar.Region) {
		sendResult1, _ = r.WriteFile(w0, []byte("1"))
	}, nil)
	sendResult2 = len("1") // the no-send case trivially "succeeds" too
	if sendResult1 != sendResult2 {
		t.Error("write return value distinguishes drop from delivery")
	}
	// The unlabeled accomplice reads: nothing arrives either way.
	if _, err := k.Read(th.Task(), r0, make([]byte, 4)); !errors.Is(err, kernel.ErrAgain) {
		t.Errorf("accomplice observed %v, want EAGAIN", err)
	}
}

// TestAttackFileNameChannel: a tainted thread cannot signal through file
// names in unlabeled directories (creation is denied before the name
// becomes visible).
func TestAttackFileNameChannel(t *testing.T) {
	sys, th, tag := adversarySystem(t)
	secret := laminar.Labels{S: laminar.NewLabel(tag)}
	th.Secure(secret, laminar.EmptyCapSet, func(r *laminar.Region) {
		if _, err := r.OpenFile("bit-is-1", laminar.OCreate|laminar.OWrite); err == nil {
			t.Error("tainted create in unlabeled directory succeeded")
		}
	}, nil)
	names, err := sys.Kernel().ReadDir(th.Task(), "/tmp")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "bit-is-1" {
			t.Error("file name leaked")
		}
	}
}

// TestAttackSignalChannel: a tainted thread cannot signal an unlabeled
// observer via kill.
func TestAttackSignalChannel(t *testing.T) {
	sys, th, tag := adversarySystem(t)
	observer, err := th.Fork([]laminar.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	// Taint the sender at the kernel level, then try to signal.
	if err := k.SetTaskLabel(th.Task(), kernel.Secrecy, laminar.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	if err := k.Kill(th.Task(), observer.Task().TID, kernel.SIGUSR1); !errors.Is(err, kernel.ErrPerm) {
		t.Errorf("tainted signal = %v, want EPERM", err)
	}
	if got := k.SigPending(observer.Task()); len(got) != 0 {
		t.Errorf("observer received %v", got)
	}
	if err := k.SetTaskLabel(th.Task(), kernel.Secrecy, laminar.EmptyLabel); err != nil {
		t.Fatal(err)
	}
}

// TestAttackRegionExitLaundering: exiting a security region must not
// leave the thread tainted OR privileged — the region's extra
// capabilities vanish with it unless explicitly retained.
func TestAttackRegionExitLaundering(t *testing.T) {
	sys, th, tag := adversarySystem(t)
	secret := laminar.Labels{S: laminar.NewLabel(tag)}
	minus := laminar.NewCapSet(laminar.EmptyLabel, laminar.NewLabel(tag))
	// Drop the thread's own minus capability globally inside a region.
	th.Secure(secret, minus, func(r *laminar.Region) {
		if err := r.RemoveCapability(tag, laminar.CapMinus, true); err != nil {
			t.Errorf("global drop: %v", err)
		}
	}, nil)
	if sys.Module().TaskCaps(th.Task()).Has(tag, laminar.CapMinus) {
		t.Error("globally dropped capability survived region exit")
	}
	// The thread can still re-enter (has tag+) but can never declassify.
	err := th.Secure(secret, laminar.EmptyCapSet, func(r *laminar.Region) {
		func() {
			defer func() { recover() }()
			o := r.Alloc(nil)
			r.CopyAndLabel(o, laminar.Labels{})
			t.Error("declassified without the capability")
		}()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
