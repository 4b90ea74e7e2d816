package laminar_test

// Differential lock-mode testing: the serial big-lock kernel is kept
// reachable exactly so it can serve as the oracle for the sharded one.
// A deterministic, single-threaded workload is replayed through both
// kernels and every observable must match byte for byte: per-op errnos,
// bytes read, label records, final filesystem contents, and the total
// number of security-hook invocations. Any divergence means the
// fine-grained locking changed semantics, not just performance.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// diffErrname collapses an error to a stable errno identity.
func diffErrname(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, kernel.ErrNoEnt):
		return "ENOENT"
	case errors.Is(err, kernel.ErrAccess):
		return "EACCES"
	case errors.Is(err, kernel.ErrPerm):
		return "EPERM"
	case errors.Is(err, kernel.ErrAgain):
		return "EAGAIN"
	case errors.Is(err, kernel.ErrExist):
		return "EEXIST"
	case errors.Is(err, kernel.ErrBadF):
		return "EBADF"
	case errors.Is(err, kernel.ErrInval):
		return "EINVAL"
	case errors.Is(err, kernel.ErrIsDir):
		return "EISDIR"
	default:
		return err.Error()
	}
}

// diffRun replays the deterministic workload on one system and returns
// (trace, final-state snapshot, hook calls).
func diffRun(t *testing.T, opts ...kernel.Option) ([]string, []string, uint64) {
	t.Helper()
	sys := laminar.NewSystem(opts...)
	k := sys.Kernel()
	mod := sys.Module()

	var trace []string
	record := func(op string, err error) {
		trace = append(trace, fmt.Sprintf("%s=%s", op, diffErrname(err)))
	}

	alice, err := sys.Login("alice")
	if err != nil {
		t.Fatalf("login alice: %v", err)
	}
	bob, err := sys.Login("bob")
	if err != nil {
		t.Fatalf("login bob: %v", err)
	}
	secretTag, err := k.AllocTag(alice)
	if err != nil {
		t.Fatalf("alloc tag: %v", err)
	}
	secret := difc.Labels{S: difc.NewLabel(secretTag)}

	rng := rand.New(rand.NewSource(99))
	var aliceFiles []string
	nfile := 0
	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1: // alice creates a secret file and fills it
			nfile++
			path := fmt.Sprintf("/home/alice/s%d", nfile)
			fd, err := k.CreateFileLabeled(alice, path, 0o600, secret)
			record("create-secret "+path, err)
			if err == nil {
				_, werr := k.Write(alice, fd, []byte("secret-"+path))
				record("fill "+path, werr)
				k.Close(alice, fd)
				aliceFiles = append(aliceFiles, path)
			}
		case 2: // alice creates an unlabeled file; odd ops fill it with a
			// batched vectored write so WriteVec sits under the same
			// byte-for-byte differential as the scalar path
			nfile++
			path := fmt.Sprintf("/home/alice/p%d", nfile)
			fd, err := k.Open(alice, path, kernel.OWrite|kernel.OCreate)
			record("create-plain "+path, err)
			if err == nil {
				if op%2 == 1 {
					_, werr := k.WriteVec(alice, fd, [][]byte{[]byte("plain-"), []byte(path)})
					record("fillvec "+path, werr)
				} else {
					_, werr := k.Write(alice, fd, []byte("plain-"+path))
					record("fill "+path, werr)
				}
				k.Close(alice, fd)
			}
		case 3: // bob probes a secret path: every outcome must be a hidden denial
			if len(aliceFiles) == 0 {
				continue
			}
			path := aliceFiles[rng.Intn(len(aliceFiles))]
			_, serr := k.Stat(bob, path)
			record("bob-stat "+path, serr)
			_, oerr := k.Open(bob, path, kernel.ORead)
			record("bob-open "+path, oerr)
			record("bob-unlink "+path, k.Unlink(bob, path))
		case 4: // alice raises her label and reads a secret back
			if len(aliceFiles) == 0 {
				continue
			}
			path := aliceFiles[rng.Intn(len(aliceFiles))]
			record("raise", k.SetTaskLabel(alice, kernel.Secrecy, difc.NewLabel(secretTag)))
			fd, oerr := k.Open(alice, path, kernel.ORead)
			record("alice-open "+path, oerr)
			if oerr == nil {
				buf := make([]byte, 64)
				n, rerr := k.Read(alice, fd, buf)
				trace = append(trace, fmt.Sprintf("alice-read %s=%s:%q", path, diffErrname(rerr), buf[:n]))
				k.Close(alice, fd)
			}
			record("clear", k.SetTaskLabel(alice, kernel.Secrecy, difc.EmptyLabel))
		case 5: // tainted pipe smuggle: bob must read nothing
			record("taint", k.SetTaskLabel(alice, kernel.Secrecy, difc.NewLabel(secretTag)))
			rfd, wfd, perr := k.Pipe(alice)
			record("pipe", perr)
			if perr == nil {
				_, werr := k.Write(alice, wfd, []byte("PIPE-SECRET"))
				record("pipe-write", werr)
				bfd, derr := k.DupTo(alice, rfd, bob)
				record("pipe-dup", derr)
				if derr == nil {
					buf := make([]byte, 32)
					n, rerr := k.Read(bob, bfd, buf)
					trace = append(trace, fmt.Sprintf("bob-pipe-read=%s:%q", diffErrname(rerr), buf[:n]))
					k.Close(bob, bfd)
				}
				k.Close(alice, rfd)
				k.Close(alice, wfd)
			}
			record("untaint", k.SetTaskLabel(alice, kernel.Secrecy, difc.EmptyLabel))
		case 6: // named socket rendezvous and a message both ways
			name := fmt.Sprintf("diff%d", op)
			record("listen "+name, k.Listen(alice, name))
			cfd, cerr := k.Connect(bob, name)
			record("connect "+name, cerr)
			afd, aerr := k.Accept(alice, name)
			record("accept "+name, aerr)
			if cerr == nil && aerr == nil {
				k.Send(bob, cfd, []byte("hello"))
				buf := make([]byte, 8)
				n, rerr := k.Recv(alice, afd, buf)
				trace = append(trace, fmt.Sprintf("recv %s=%s:%q", name, diffErrname(rerr), buf[:n]))
			}
			if cerr == nil {
				k.Close(bob, cfd)
			}
			if aerr == nil {
				k.Close(alice, afd)
			}
		case 7: // capability transfer over a pipe, then bob reads a secret
			rfd, wfd, perr := k.Pipe(alice)
			record("cap-pipe", perr)
			if perr != nil {
				continue
			}
			record("cap-write", k.WriteCapability(alice, kernel.Capability{Tag: secretTag, Kind: difc.CapPlus}, wfd))
			bfd, derr := k.DupTo(alice, rfd, bob)
			record("cap-dup", derr)
			if derr == nil {
				_, cerr := k.ReadCapability(bob, bfd)
				record("cap-read", cerr)
				k.Close(bob, bfd)
			}
			k.Close(alice, rfd)
			k.Close(alice, wfd)
		case 8: // directory work
			path := fmt.Sprintf("/home/alice/d%d", op)
			record("mkdir "+path, k.Mkdir(alice, path, 0o755))
			names, rerr := k.ReadDir(alice, "/home/alice")
			trace = append(trace, fmt.Sprintf("readdir=%s:%d", diffErrname(rerr), len(names)))
		default: // task churn and an occasional unlink of her own file
			child, ferr := k.Fork(alice, nil)
			record("fork", ferr)
			if ferr == nil {
				k.Exit(child)
			}
			if len(aliceFiles) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(aliceFiles))
				record("unlink "+aliceFiles[i], k.Unlink(alice, aliceFiles[i]))
				aliceFiles = append(aliceFiles[:i], aliceFiles[i+1:]...)
			}
		}
	}

	// Final snapshot: walk the tree as alice with her secrecy raised so
	// every file she created is visible, recording type, content and the
	// canonical persistent label record for each path. Raw inode numbers
	// are process-global and deliberately excluded.
	if err := k.SetTaskLabel(alice, kernel.Secrecy, difc.NewLabel(secretTag)); err != nil {
		t.Fatalf("final raise: %v", err)
	}
	var snapshot []string
	var walk func(path string)
	walk = func(path string) {
		st, err := k.Stat(alice, path)
		if err != nil {
			snapshot = append(snapshot, fmt.Sprintf("%s stat=%s", path, diffErrname(err)))
			return
		}
		line := fmt.Sprintf("%s type=%d size=%d nlink=%d", path, st.Type, st.Size, st.Nlink)
		if st.Type == kernel.TypeRegular {
			if fd, oerr := k.Open(alice, path, kernel.ORead); oerr == nil {
				buf := make([]byte, 256)
				n, _ := k.Read(alice, fd, buf)
				line += fmt.Sprintf(" data=%q", buf[:n])
				k.Close(alice, fd)
			} else {
				line += " data=denied:" + diffErrname(oerr)
			}
			if rec, xerr := k.GetXattr(alice, path, lsm.XattrLabel); xerr == nil {
				line += fmt.Sprintf(" label=%x", rec)
			}
		}
		snapshot = append(snapshot, line)
		if st.Type == kernel.TypeDir {
			names, rerr := k.ReadDir(alice, path)
			if rerr != nil {
				snapshot = append(snapshot, fmt.Sprintf("%s readdir=%s", path, diffErrname(rerr)))
				return
			}
			sort.Strings(names)
			for _, name := range names {
				child := path + "/" + name
				if path == "/" {
					child = "/" + name
				}
				walk(child)
			}
		}
	}
	walk("/")
	// Task labels are observable state too.
	snapshot = append(snapshot,
		"alice-labels="+mod.TaskLabels(alice).String(),
		"bob-labels="+mod.TaskLabels(bob).String())

	return trace, snapshot, k.HookCalls()
}

// TestDifferentialLockModes replays the same deterministic workload
// through the sharded kernel and the big-lock kernel and requires
// identical traces, identical final filesystem state and identical
// hook-call counts.
func TestDifferentialLockModes(t *testing.T) {
	shardTrace, shardSnap, shardHooks := diffRun(t)
	serialTrace, serialSnap, serialHooks := diffRun(t, kernel.WithBigLock())

	diffLines := func(kind string, a, b []string) {
		t.Helper()
		if len(a) != len(b) {
			t.Errorf("%s length: sharded %d vs big lock %d", kind, len(a), len(b))
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: sharded %q != big lock %q", kind, i, a[i], b[i])
			}
		}
	}
	diffLines("trace", shardTrace, serialTrace)
	diffLines("snapshot", shardSnap, serialSnap)
	if shardHooks != serialHooks {
		t.Errorf("hook calls: sharded %d != big lock %d", shardHooks, serialHooks)
	}

	// Sanity: the workload actually exercised denials and secrets — a
	// trace with no denied probe would make the equivalence vacuous.
	joined := strings.Join(shardTrace, "\n")
	for _, want := range []string{"bob-stat", "bob-open", "=ENOENT", "create-secret", "bob-pipe-read"} {
		if !strings.Contains(joined, want) {
			t.Errorf("workload never produced %q; differential check is vacuous", want)
		}
	}
}
