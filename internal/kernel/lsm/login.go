package lsm

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// This file implements capability persistence and login (§4.4): "The OS
// stores the persistent capabilities for each user in a file. On login,
// the OS gives the login shell all of the user's persistent capabilities,
// just as it gives the shell access to the controlling terminal."

// capsDir is where per-user persistent capability files live.
const capsDir = "/etc/laminar/caps"

// capsMagic heads a checksummed capability file. A file without it is
// unverifiable and loads as no capabilities at all.
const capsMagic = "LMCAPS1"

// encodeCapsFile wraps the textual capability set in a checksummed
// envelope: "LMCAPS1 <crc32 hex>\n<payload>". A torn write is detected by
// the checksum instead of being half-parsed into a smaller — or worse,
// different — capability set.
func encodeCapsFile(caps difc.CapSet) []byte {
	payload := caps.FormatText()
	sum := crc32.ChecksumIEEE([]byte(payload))
	return []byte(fmt.Sprintf("%s %08x\n%s", capsMagic, sum, payload))
}

// decodeCapsFile validates and parses a capability file. A file without
// the envelope is an error like a torn one: plain text carries no
// checksum, so a half-written or planted file would otherwise parse into
// some capability set (DESIGN.md §8).
func decodeCapsFile(data []byte) (difc.CapSet, error) {
	s := string(data)
	if !strings.HasPrefix(s, capsMagic+" ") {
		return difc.EmptyCapSet, fmt.Errorf("caps file has no %s envelope", capsMagic)
	}
	head, payload, ok := strings.Cut(s, "\n")
	if !ok {
		return difc.EmptyCapSet, fmt.Errorf("caps file truncated before payload")
	}
	sumHex := strings.TrimPrefix(head, capsMagic+" ")
	want, err := strconv.ParseUint(sumHex, 16, 32)
	if err != nil {
		return difc.EmptyCapSet, fmt.Errorf("caps file bad checksum field: %v", err)
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return difc.EmptyCapSet, fmt.Errorf("caps file checksum mismatch")
	}
	return difc.ParseCapSetText(payload)
}

// SaveUserCaps persists caps as user's capability file, written with the
// acting (trusted, typically init/root) task's credentials. The admin task
// must hold the administrator capabilities (granted to init at install
// time): the caps directory lives under admin-integrity /etc, so the
// writer raises its integrity for the duration.
func (m *Module) SaveUserCaps(k *kernel.Kernel, admin *kernel.Task, user string, caps difc.CapSet) error {
	restore, err := m.raiseAdminIntegrity(k, admin)
	if err != nil {
		return err
	}
	defer restore()
	if err := ensureCapsDir(k, admin); err != nil {
		return err
	}
	// Shadow-write + flip, like label records (persist.go): the new
	// envelope lands fully in <user>.shadow before <user> is rewritten, so
	// a crash during either write leaves at least one valid copy. Both
	// writes go through the ordinary (faultable) write syscall and can
	// tear; the checksum makes a torn copy detectable rather than
	// half-parseable.
	path := capsDir + "/" + user
	data := encodeCapsFile(caps)
	if err := writeFileAll(k, admin, path+".shadow", data); err != nil {
		return err
	}
	if err := writeFileAll(k, admin, path, data); err != nil {
		return err
	}
	// Cleanup is best-effort: a leftover shadow only means the next load
	// has a second valid copy to ignore.
	_ = k.Unlink(admin, path+".shadow")
	return nil
}

func writeFileAll(k *kernel.Kernel, t *kernel.Task, path string, data []byte) error {
	fd, err := k.Open(t, path, kernel.ORead|kernel.OWrite|kernel.OCreate|kernel.OTrunc)
	if err != nil {
		return err
	}
	defer k.Close(t, fd)
	if _, err := k.Write(t, fd, data); err != nil {
		return err
	}
	return nil
}

// raiseAdminIntegrity adds the administrator tag to the task's integrity
// label, returning a restore func that puts the previous label back.
func (m *Module) raiseAdminIntegrity(k *kernel.Kernel, t *kernel.Task) (func(), error) {
	prev := m.taskState(t).labels.I
	raised := prev.Add(m.adminTag)
	if err := k.SetTaskLabel(t, kernel.Integrity, raised); err != nil {
		return nil, err
	}
	return func() { _ = k.SetTaskLabel(t, kernel.Integrity, prev) }, nil
}

// LoadUserCaps reads a user's persistent capability file, rolling forward
// from the shadow copy when the primary is torn or missing. When neither
// copy validates but one exists, it FAILS CLOSED: the user logs in with no
// capabilities — inconvenient, but corruption can only ever shrink
// privilege, never mint it. Only a missing file (user never saved) returns
// ErrNoEnt.
func (m *Module) LoadUserCaps(k *kernel.Kernel, admin *kernel.Task, user string) (difc.CapSet, error) {
	path := capsDir + "/" + user
	primary, perr := readFileAll(k, admin, path)
	if perr == nil {
		if caps, err := decodeCapsFile(primary); err == nil {
			return caps, nil
		}
	} else if perr != kernel.ErrNoEnt {
		return difc.EmptyCapSet, perr
	}
	shadow, serr := readFileAll(k, admin, path+".shadow")
	if serr == nil {
		if caps, err := decodeCapsFile(shadow); err == nil {
			// Roll the valid shadow forward into the primary; repair is
			// best-effort — the shadow alone already serves future loads.
			if restore, err := m.raiseAdminIntegrity(k, admin); err == nil {
				_ = writeFileAll(k, admin, path, shadow)
				_ = k.Unlink(admin, path+".shadow")
				restore()
			}
			return caps, nil
		}
	}
	if perr == kernel.ErrNoEnt && serr == kernel.ErrNoEnt {
		return difc.EmptyCapSet, kernel.ErrNoEnt
	}
	return difc.EmptyCapSet, nil // some copy existed, none validated: no caps
}

func readFileAll(k *kernel.Kernel, t *kernel.Task, path string) ([]byte, error) {
	fd, err := k.Open(t, path, kernel.ORead)
	if err != nil {
		return nil, err
	}
	defer k.Close(t, fd)
	buf := make([]byte, 64*1024)
	n, err := k.Read(t, fd, buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// Login spawns a fresh-process login shell task for user, grants it the
// user's persistent capabilities, creates /home/<user> if missing, and
// chdirs there. The shell starts unlabeled, like any fresh principal.
func (m *Module) Login(k *kernel.Kernel, user string) (*kernel.Task, error) {
	init := k.InitTask()
	shell, err := k.Spawn(init, []kernel.Capability{}) // inherit no capabilities
	if err != nil {
		return nil, err
	}
	shell.User = user
	caps, err := m.LoadUserCaps(k, init, user)
	if err != nil && err != kernel.ErrNoEnt {
		k.Exit(shell)
		return nil, fmt.Errorf("login %s: %w", user, err)
	}
	s := m.taskState(shell)
	s.labels = difc.Labels{}
	s.caps = caps
	home := "/home/" + user
	if _, err := k.Stat(init, home); err == kernel.ErrNoEnt {
		// Creating the home directory writes admin-integrity /home, so
		// init raises its integrity; the home itself is created unlabeled
		// so the user can populate it without trusting the administrator
		// tag for writes.
		restore, rerr := m.raiseAdminIntegrity(k, init)
		if rerr != nil {
			k.Exit(shell)
			return nil, rerr
		}
		err := k.MkdirLabeled(init, home, 0o755, difc.Labels{})
		restore()
		if err != nil {
			k.Exit(shell)
			return nil, err
		}
	}
	if err := k.Chdir(shell, home); err != nil {
		k.Exit(shell)
		return nil, err
	}
	return shell, nil
}

func ensureCapsDir(k *kernel.Kernel, admin *kernel.Task) error {
	if _, err := k.Stat(admin, capsDir); err == kernel.ErrNoEnt {
		return k.Mkdir(admin, capsDir, 0o700)
	} else if err != nil {
		return err
	}
	return nil
}
