package kernel

import (
	"errors"
	"testing"

	"laminar/internal/difc"
)

// bare returns a kernel without a security module — the unmodified-Linux
// baseline.
func bare(t *testing.T) (*Kernel, *Task) {
	t.Helper()
	k := New()
	return k, k.InitTask()
}

func TestBootTree(t *testing.T) {
	k, init := bare(t)
	for _, p := range []string{"/", "/etc", "/etc/laminar", "/home", "/tmp", "/dev"} {
		st, err := k.Stat(init, p)
		if err != nil {
			t.Fatalf("Stat(%s): %v", p, err)
		}
		if st.Type != TypeDir {
			t.Errorf("%s type = %v, want dir", p, st.Type)
		}
	}
	st, err := k.Stat(init, "/dev/null")
	if err != nil || st.Type != TypeDevNull {
		t.Errorf("/dev/null = %+v, %v", st, err)
	}
	st, err = k.Stat(init, "/dev/zero")
	if err != nil || st.Type != TypeDevZero {
		t.Errorf("/dev/zero = %+v, %v", st, err)
	}
}

func TestFileCreateWriteRead(t *testing.T) {
	k, init := bare(t)
	fd, err := k.Open(init, "/tmp/a", ORead|OWrite|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(init, fd, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := k.Seek(init, fd, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := k.Read(init, fd, buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	// EOF.
	n, err = k.Read(init, fd, buf)
	if n != 0 || err != nil {
		t.Errorf("EOF read = %d, %v", n, err)
	}
	if err := k.Close(init, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(init, fd, buf); !errors.Is(err, ErrBadF) {
		t.Errorf("read after close = %v, want EBADF", err)
	}
}

func TestOpenFlagsEnforced(t *testing.T) {
	k, init := bare(t)
	fd, err := k.Open(init, "/tmp/ro", ORead|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(init, fd, []byte("x")); !errors.Is(err, ErrBadF) {
		t.Errorf("write on read-only fd = %v", err)
	}
	wfd, err := k.Open(init, "/tmp/ro", OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(init, wfd, make([]byte, 1)); !errors.Is(err, ErrBadF) {
		t.Errorf("read on write-only fd = %v", err)
	}
}

func TestOpenTruncAndAppend(t *testing.T) {
	k, init := bare(t)
	fd, _ := k.Open(init, "/tmp/f", OWrite|OCreate)
	k.Write(init, fd, []byte("aaaa"))
	k.Close(init, fd)

	fd, _ = k.Open(init, "/tmp/f", OWrite|OAppend)
	k.Write(init, fd, []byte("bb"))
	k.Close(init, fd)
	st, _ := k.Stat(init, "/tmp/f")
	if st.Size != 6 {
		t.Errorf("append size = %d, want 6", st.Size)
	}

	fd, _ = k.Open(init, "/tmp/f", OWrite|OTrunc)
	k.Close(init, fd)
	st, _ = k.Stat(init, "/tmp/f")
	if st.Size != 0 {
		t.Errorf("trunc size = %d, want 0", st.Size)
	}
}

func TestPathResolution(t *testing.T) {
	k, init := bare(t)
	if err := k.Mkdir(init, "/tmp/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(init, "/tmp/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := k.Open(init, "rel", OCreate|OWrite)
	if err != nil {
		t.Fatal(err)
	}
	k.Close(init, fd)
	if _, err := k.Stat(init, "/tmp/d/rel"); err != nil {
		t.Errorf("relative create invisible at absolute path: %v", err)
	}
	if _, err := k.Stat(init, "../d/rel"); err != nil {
		t.Errorf("dotdot resolution: %v", err)
	}
	if _, err := k.Stat(init, "./rel"); err != nil {
		t.Errorf("dot resolution: %v", err)
	}
	if _, err := k.Stat(init, "rel/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("file as dir = %v, want ENOTDIR", err)
	}
	if _, err := k.Stat(init, "/nope/a"); !errors.Is(err, ErrNoEnt) {
		t.Errorf("missing dir = %v, want ENOENT", err)
	}
	if _, err := k.Stat(init, ""); !errors.Is(err, ErrNoEnt) {
		t.Errorf("empty path = %v, want ENOENT", err)
	}
}

func TestUnlink(t *testing.T) {
	k, init := bare(t)
	fd, _ := k.Open(init, "/tmp/x", OCreate|OWrite)
	k.Close(init, fd)
	if err := k.Unlink(init, "/tmp/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(init, "/tmp/x"); !errors.Is(err, ErrNoEnt) {
		t.Errorf("stat after unlink = %v", err)
	}
	if err := k.Unlink(init, "/tmp"); !errors.Is(err, ErrIsDir) {
		t.Errorf("unlink dir = %v, want EISDIR", err)
	}
}

func TestMkdirErrors(t *testing.T) {
	k, init := bare(t)
	if err := k.Mkdir(init, "/tmp", 0o755); !errors.Is(err, ErrExist) {
		t.Errorf("mkdir existing = %v", err)
	}
	if err := k.Mkdir(init, "/nope/d", 0o755); !errors.Is(err, ErrNoEnt) {
		t.Errorf("mkdir missing parent = %v", err)
	}
}

func TestReadDir(t *testing.T) {
	k, init := bare(t)
	k.Mkdir(init, "/tmp/dir", 0o755)
	for _, n := range []string{"b", "a", "c"} {
		fd, _ := k.Open(init, "/tmp/dir/"+n, OCreate|OWrite)
		k.Close(init, fd)
	}
	names, err := k.ReadDir(init, "/tmp/dir")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("ReadDir = %v, want %v", names, want)
	}
	if _, err := k.ReadDir(init, "/dev/null"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir on file = %v", err)
	}
}

func TestDevices(t *testing.T) {
	k, init := bare(t)
	zfd, _ := k.Open(init, "/dev/zero", ORead)
	buf := []byte{1, 2, 3}
	n, err := k.Read(init, zfd, buf)
	if err != nil || n != 3 || buf[0] != 0 || buf[2] != 0 {
		t.Errorf("read /dev/zero = %v %v %v", n, buf, err)
	}
	nfd, _ := k.Open(init, "/dev/null", OWrite)
	n, err = k.Write(init, nfd, []byte("gone"))
	if err != nil || n != 4 {
		t.Errorf("write /dev/null = %v, %v", n, err)
	}
}

func TestPipeBasics(t *testing.T) {
	k, init := bare(t)
	r, w, err := k.Pipe(init)
	if err != nil {
		t.Fatal(err)
	}
	// Empty pipe: EAGAIN, never EOF.
	if _, err := k.Read(init, r, make([]byte, 4)); !errors.Is(err, ErrAgain) {
		t.Errorf("empty pipe read = %v, want EAGAIN", err)
	}
	if _, err := k.Write(init, w, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := k.Read(init, r, buf)
	if err != nil || string(buf[:n]) != "msg" {
		t.Errorf("pipe read = %q, %v", buf[:n], err)
	}
	// Wrong ends.
	if _, err := k.Write(init, r, []byte("x")); !errors.Is(err, ErrBadF) {
		t.Errorf("write to read end = %v", err)
	}
	if _, err := k.Read(init, w, buf); !errors.Is(err, ErrBadF) {
		t.Errorf("read from write end = %v", err)
	}
}

func TestPipeOverflowSilentDrop(t *testing.T) {
	k, init := bare(t)
	r, w, _ := k.Pipe(init)
	big := make([]byte, pipeCapacity)
	if n, err := k.Write(init, w, big); err != nil || n != len(big) {
		t.Fatalf("fill write = %d, %v", n, err)
	}
	// Overflowing write still reports success but delivers nothing.
	if n, err := k.Write(init, w, []byte("extra")); err != nil || n != 5 {
		t.Fatalf("overflow write = %d, %v (must report success)", n, err)
	}
	total := 0
	buf := make([]byte, 8192)
	for {
		n, err := k.Read(init, r, buf)
		if errors.Is(err, ErrAgain) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != pipeCapacity {
		t.Errorf("drained %d bytes, want %d (overflow must be dropped)", total, pipeCapacity)
	}
}

func TestForkAndExit(t *testing.T) {
	k, init := bare(t)
	child, err := k.Fork(init, nil)
	if err != nil {
		t.Fatal(err)
	}
	if child.Proc != init.Proc || child.proc != init.proc {
		t.Errorf("child proc = %v, want the parent's %v", child.Proc, init.Proc)
	}
	if c, ok := k.taskLookup(child.TID); !ok || c.exited.Load() {
		t.Error("child not found")
	}
	k.Exit(child)
	if c, ok := k.taskLookup(child.TID); ok && !c.exited.Load() {
		t.Error("exited child still visible")
	}
	k.Exit(child) // double exit is a no-op
}

func TestSpawnNewProcess(t *testing.T) {
	k, init := bare(t)
	child, err := k.Spawn(init, nil)
	if err != nil {
		t.Fatal(err)
	}
	if child.Proc == init.Proc {
		t.Error("Spawn should allocate a fresh process id")
	}
}

func TestExec(t *testing.T) {
	k, init := bare(t)
	fd, _ := k.Open(init, "/tmp/prog", OCreate|OWrite)
	k.Write(init, fd, []byte("#!bin"))
	k.Close(init, fd)
	if _, err := k.Mmap(init, 100, ProtRead, -1); err != nil {
		t.Fatal(err)
	}
	if err := k.Exec(init, "/tmp/prog"); err != nil {
		t.Fatal(err)
	}
	if len(init.vmas) != 0 {
		t.Error("exec should drop mappings")
	}
	if err := k.Exec(init, "/tmp"); !errors.Is(err, ErrIsDir) {
		t.Errorf("exec dir = %v", err)
	}
	if err := k.Exec(init, "/tmp/none"); !errors.Is(err, ErrNoEnt) {
		t.Errorf("exec missing = %v", err)
	}
}

func TestSignals(t *testing.T) {
	k, init := bare(t)
	child, _ := k.Fork(init, nil)
	if err := k.Kill(init, child.TID, SIGUSR1); err != nil {
		t.Fatal(err)
	}
	sigs := k.SigPending(child)
	if len(sigs) != 1 || sigs[0] != SIGUSR1 {
		t.Errorf("pending = %v", sigs)
	}
	if len(k.SigPending(child)) != 0 {
		t.Error("SigPending should drain")
	}
	if err := k.Kill(init, TID(9999), SIGKILL); !errors.Is(err, ErrSrch) {
		t.Errorf("kill missing task = %v", err)
	}
}

func TestMmapProtFault(t *testing.T) {
	k, init := bare(t)
	addr, err := k.Mmap(init, 3*PageSize, ProtRead|ProtWrite, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.PageFault(init, addr+PageSize, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Mprotect(init, addr, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := k.PageFault(init, addr, true); !errors.Is(err, ErrFault) {
		t.Errorf("write fault on RO mapping = %v, want EFAULT", err)
	}
	if err := k.PageFault(init, addr, false); err != nil {
		t.Errorf("read fault on RO mapping = %v", err)
	}
	if err := k.Munmap(init, addr); err != nil {
		t.Fatal(err)
	}
	if err := k.PageFault(init, addr, false); !errors.Is(err, ErrFault) {
		t.Errorf("fault on unmapped = %v", err)
	}
	if err := k.Munmap(init, addr); !errors.Is(err, ErrInval) {
		t.Errorf("double munmap = %v", err)
	}
	if _, err := k.Mmap(init, 0, ProtRead, -1); !errors.Is(err, ErrInval) {
		t.Errorf("zero-length mmap = %v", err)
	}
}

func TestLabelSyscallsWithoutModule(t *testing.T) {
	k, init := bare(t)
	if _, err := k.AllocTag(init); !errors.Is(err, ErrNoSys) {
		t.Errorf("AllocTag = %v, want ENOSYS", err)
	}
	if err := k.SetTaskLabel(init, Secrecy, difc.EmptyLabel); !errors.Is(err, ErrNoSys) {
		t.Errorf("SetTaskLabel = %v", err)
	}
	if err := k.DropCapabilities(init, nil, false); !errors.Is(err, ErrNoSys) {
		t.Errorf("DropCapabilities = %v", err)
	}
}

func TestDupTo(t *testing.T) {
	k, init := bare(t)
	child, _ := k.Fork(init, nil)
	r, w, _ := k.Pipe(init)
	rc, err := k.DupTo(init, r, child)
	if err != nil {
		t.Fatal(err)
	}
	k.Write(init, w, []byte("hi"))
	buf := make([]byte, 4)
	n, err := k.Read(child, rc, buf)
	if err != nil || string(buf[:n]) != "hi" {
		t.Errorf("dup'd read = %q, %v", buf[:n], err)
	}
}

func TestHookCallsZeroWithoutModule(t *testing.T) {
	k, init := bare(t)
	k.Stat(init, "/etc")
	fd, _ := k.Open(init, "/tmp/h", OCreate|OWrite)
	k.Write(init, fd, []byte("x"))
	if k.HookCalls() != 0 {
		t.Errorf("hook calls without module = %d", k.HookCalls())
	}
	if k.String() != "kernel{lsm=none,lock=sharded}" {
		t.Errorf("String = %q", k.String())
	}
}
