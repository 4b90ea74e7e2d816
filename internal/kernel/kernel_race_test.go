package kernel

// Concurrency test battery for the sharded kernel (run under -race).
//
// The storms here are the proof obligations of the fine-grained locking
// refactor: N tasks issue overlapping syscalls of every family — open,
// read, write, seek, unlink, mkdir, readdir, stat, pipe, socketpair,
// send/recv, listen/connect/accept, dup, fork, kill, exit, label change —
// and the battery checks that
//
//   - nothing deadlocks (a watchdog converts a hang into a stack dump),
//   - no update is lost: every task's private files hold exactly the
//     bytes it wrote, and no byte materializes in a shared pipe that no
//     writer sent,
//   - the task table stays consistent through fork/exit churn, and
//   - security denials are fail-closed and identical to a serial run:
//     the same deterministic per-task scripts produce byte-identical
//     per-task outcome traces on the sharded and the big-lock kernel.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laminar/internal/difc"
)

// stormTimeout bounds every storm; a sharded-lock deadlock shows up as a
// watchdog failure with full goroutine stacks rather than a test-binary
// timeout with no attribution.
const stormTimeout = 2 * time.Minute

// waitOrDeadlock waits for the storm to drain or fails with all stacks.
func waitOrDeadlock(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stormTimeout):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("storm deadlocked (no progress in %v); goroutine dump:\n%s", stormTimeout, buf[:n])
	}
}

// TestSyscallStormRace is the flagship storm: every syscall family, from
// many tasks at once, against one sharded kernel. Each task works mostly
// in a private directory (whose final contents are verified byte-exact)
// and also pokes the shared namespaces — the listener table, neighbor fd
// tables via DupTo, neighbor children via Kill — to drive cross-task lock
// paths.
func TestSyscallStormRace(t *testing.T) {
	const (
		nTasks = 12
		nOps   = 250
	)
	k := New()
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/storm", 0o755); err != nil {
		t.Fatal(err)
	}
	tasks := make([]*Task, nTasks)
	for i := range tasks {
		task, err := k.Spawn(init, nil)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}

	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := tasks[i]
			rng := rand.New(rand.NewSource(int64(i)))
			dir := fmt.Sprintf("/tmp/storm/t%d", i)
			if err := k.Mkdir(task, dir, 0o755); err != nil {
				t.Errorf("task %d: mkdir: %v", i, err)
				return
			}
			if err := k.Listen(task, fmt.Sprintf("storm%d", i)); err != nil {
				t.Errorf("task %d: listen: %v", i, err)
				return
			}
			for op := 0; op < nOps; op++ {
				switch rng.Intn(10) {
				case 0, 1: // private create/write/read round trip
					path := fmt.Sprintf("%s/f%d", dir, op)
					fd, err := k.Open(task, path, ORead|OWrite|OCreate)
					if err != nil {
						t.Errorf("task %d: open %s: %v", i, path, err)
						continue
					}
					payload := []byte(fmt.Sprintf("t%d-op%d", i, op))
					if _, err := k.Write(task, fd, payload); err != nil {
						t.Errorf("task %d: write: %v", i, err)
					}
					if err := k.Seek(task, fd, 0); err != nil {
						t.Errorf("task %d: seek: %v", i, err)
					}
					buf := make([]byte, len(payload))
					if n, err := k.Read(task, fd, buf); err != nil || string(buf[:n]) != string(payload) {
						t.Errorf("task %d: read back %q, %v (want %q)", i, buf[:n], err, payload)
					}
					k.Close(task, fd)
				case 2: // stat + readdir, own dir and shared parents
					k.Stat(task, dir)
					k.Stat(task, "/tmp/storm")
					k.ReadDir(task, dir)
				case 3: // unlink something previously created (may be gone)
					k.Unlink(task, fmt.Sprintf("%s/f%d", dir, rng.Intn(op+1)))
				case 4: // private pipe round trip
					rfd, wfd, err := k.Pipe(task)
					if err != nil {
						t.Errorf("task %d: pipe: %v", i, err)
						continue
					}
					if _, err := k.Write(task, wfd, []byte("ping")); err != nil {
						t.Errorf("task %d: pipe write: %v", i, err)
					}
					buf := make([]byte, 8)
					if n, err := k.Read(task, rfd, buf); err != nil || string(buf[:n]) != "ping" {
						t.Errorf("task %d: pipe read %q, %v", i, buf[:n], err)
					}
					k.Close(task, rfd)
					k.Close(task, wfd)
				case 5: // socketpair send/recv
					a, b, err := k.Socketpair(task)
					if err != nil {
						t.Errorf("task %d: socketpair: %v", i, err)
						continue
					}
					k.Send(task, a, []byte("sp"))
					buf := make([]byte, 4)
					if n, err := k.Recv(task, b, buf); err != nil || string(buf[:n]) != "sp" {
						t.Errorf("task %d: recv %q, %v", i, buf[:n], err)
					}
					k.Close(task, a)
					k.Close(task, b)
				case 6: // connect to a random peer's listener; accept own queue
					k.Connect(task, fmt.Sprintf("storm%d", rng.Intn(nTasks)))
					if fd, err := k.Accept(task, fmt.Sprintf("storm%d", i)); err == nil {
						k.Close(task, fd)
					}
				case 7: // dup a pipe end into the neighbor's fd table
					rfd, wfd, err := k.Pipe(task)
					if err != nil {
						continue
					}
					k.DupTo(task, rfd, tasks[(i+1)%nTasks])
					k.Close(task, rfd)
					k.Close(task, wfd)
				case 8: // fork/exit churn, plus signaling the child
					child, err := k.Fork(task, nil)
					if err != nil {
						t.Errorf("task %d: fork: %v", i, err)
						continue
					}
					if rng.Intn(2) == 0 {
						k.Kill(task, child.TID, 9)
					}
					k.Exit(child)
				default: // label-change syscalls (no-op module side, full lock path)
					k.SetTaskLabel(task, Secrecy, difc.EmptyLabel)
				}
			}
		}(i)
	}
	waitOrDeadlock(t, &wg)

	// Post-storm sweep: every surviving private file must hold exactly the
	// bytes its owner wrote — a torn or lost update under contention would
	// surface as a mismatch here.
	for i := range tasks {
		dir := fmt.Sprintf("/tmp/storm/t%d", i)
		names, err := k.ReadDir(init, dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		for _, name := range names {
			path := dir + "/" + name
			fd, err := k.Open(init, path, ORead)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				continue
			}
			buf := make([]byte, 64)
			n, err := k.Read(init, fd, buf)
			k.Close(init, fd)
			var idx int
			want := ""
			if _, serr := fmt.Sscanf(name, "f%d", &idx); serr == nil {
				want = fmt.Sprintf("t%d-op%d", i, idx)
			}
			if err != nil || string(buf[:n]) != want {
				t.Errorf("%s holds %q, %v (want %q)", path, buf[:n], err, want)
			}
		}
	}
}

// TestStormPipeIntegrity drives one shared pipe from many writers while a
// reader drains it. Pipe writes are all-or-nothing (a full buffer drops
// the whole message, §5.2), so conservation must hold per message: every
// chunk the reader sees is byte-identical to a chunk some writer sent, and
// no writer's chunks arrive more often than it wrote them.
func TestStormPipeIntegrity(t *testing.T) {
	const (
		nWriters  = 8
		perWriter = 400
		chunk     = 16
	)
	k := New()
	init := k.InitTask()
	rfd, wfd, err := k.Pipe(init)
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]*Task, nWriters)
	wfds := make([]FD, nWriters)
	for i := range writers {
		task, err := k.Spawn(init, nil)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = task
		dup, err := k.DupTo(init, wfd, task)
		if err != nil {
			t.Fatal(err)
		}
		wfds[i] = dup
	}

	var wg sync.WaitGroup
	var wrote [nWriters]atomic.Int64
	for i := range writers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := make([]byte, chunk)
			for j := range payload {
				payload[j] = byte('A' + i)
			}
			for n := 0; n < perWriter; n++ {
				if _, err := k.Write(writers[i], wfds[i], payload); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				wrote[i].Add(1)
			}
		}(i)
	}

	var got [nWriters]int64
	var torn int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, chunk)
		idle := 0
		for idle < 1000 {
			n, err := k.Read(init, rfd, buf)
			if errors.Is(err, ErrAgain) || n == 0 {
				idle++
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			idle = 0
			if n != chunk {
				torn++
				continue
			}
			w := int(buf[0] - 'A')
			if w < 0 || w >= nWriters {
				torn++
				continue
			}
			for _, b := range buf[:n] {
				if b != buf[0] {
					torn++
					w = -1
					break
				}
			}
			if w >= 0 {
				got[w]++
			}
		}
	}()
	waitOrDeadlock(t, &wg)

	if torn != 0 {
		t.Errorf("reader observed %d torn/foreign chunks", torn)
	}
	for i := range got {
		if got[i] > wrote[i].Load() {
			t.Errorf("writer %d: read %d chunks but only %d were written", i, got[i], wrote[i].Load())
		}
	}
}

// TestForkExitChurnTaskTable hammers the sharded task table: concurrent
// forks, exits and cross-goroutine kills, then checks the table holds
// exactly the tasks that were left alive.
func TestForkExitChurnTaskTable(t *testing.T) {
	const (
		nWorkers = 8
		rounds   = 300
	)
	k := New()
	init := k.InitTask()
	var survivors sync.Map // TID -> struct{}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				child, err := k.Spawn(init, nil)
				if err != nil {
					t.Errorf("worker %d: spawn: %v", w, err)
					return
				}
				if rng.Intn(4) != 0 {
					k.Exit(child)
				} else {
					survivors.Store(child.TID, struct{}{})
				}
			}
		}(w)
	}
	waitOrDeadlock(t, &wg)

	survivors.Range(func(key, _ any) bool {
		tid := key.(TID)
		task, ok := k.taskLookup(tid)
		if !ok {
			t.Errorf("survivor %d vanished from the task table", tid)
			return true
		}
		if task.Exited() {
			t.Errorf("survivor %d is marked exited", tid)
		}
		return true
	})
	// Every task left in the table must be either init or a survivor.
	count := 0
	for _, task := range tableTasks(k) {
		count++
		if task.TID == 1 {
			continue
		}
		if _, ok := survivors.Load(task.TID); !ok {
			t.Errorf("task %d in table but neither init nor survivor", task.TID)
		}
	}
	want := 1
	survivors.Range(func(_, _ any) bool { want++; return true })
	if count != want {
		t.Errorf("task table holds %d tasks, want %d", count, want)
	}
}

// Deterministic deny tags for tagModule: a file created with denyReadTag
// in its secrecy label refuses reads, denyWriteTag refuses writes.
const (
	denyReadTag  difc.Tag = 1
	denyWriteTag difc.Tag = 2
)

// tagModule is a deliberately tiny SecurityModule whose denials depend
// only on durable state (the labels frozen into the inode's security
// blob at creation), never on timing: denyReadTag forbids reads (with
// the fail-closed ErrAccessRead marker, so path syscalls report ENOENT)
// and denyWriteTag forbids writes. State-only rules make per-task
// outcome traces deterministic under any interleaving, which is what
// lets the denial-equivalence storm compare sharded runs against serial
// ones byte for byte.
type tagModule struct{}

func (tagModule) Name() string                               { return "tag-test" }
func (tagModule) TaskAlloc(_, _ *Task, _ []Capability) error { return nil }
func (tagModule) TaskFree(*Task)                             {}

func (tagModule) InodeInitSecurity(_ *Task, _, ino *Inode, labels *difc.Labels) error {
	if labels != nil {
		// Attached pre-publish and immutable afterwards, so permission
		// hooks read it without locks — the same discipline as the lsm.
		ino.Security = *labels
	}
	return nil
}

func (tagModule) InodePostCreate(*Task, *Inode, *Inode) error { return nil }

func (tagModule) InodePermission(_ *Task, ino *Inode, mask AccessMask) error {
	return tagPermission(ino, mask)
}

func (tagModule) FilePermission(_ *Task, f *File, mask AccessMask) error {
	return tagPermission(f.Inode, mask)
}

func tagPermission(ino *Inode, mask AccessMask) error {
	labels, ok := ino.Security.(difc.Labels)
	if !ok {
		return nil
	}
	if mask&(MayRead|MayUnlink) != 0 && labels.S.Has(denyReadTag) {
		return fmt.Errorf("%w: deny-read tag set", ErrAccessRead)
	}
	if mask&MayWrite != 0 && labels.S.Has(denyWriteTag) {
		return fmt.Errorf("%w: deny-write tag set", ErrAccess)
	}
	return nil
}

func (tagModule) MmapFile(*Task, *Inode, int) error                { return nil }
func (tagModule) TaskKill(*Task, *Task, Signal) error              { return nil }
func (tagModule) AllocTag(*Task) (difc.Tag, error)                 { return difc.InvalidTag, ErrNoSys }
func (tagModule) SetTaskLabel(*Task, LabelType, difc.Label) error  { return nil }
func (tagModule) DropLabelTCB(*Task, *Task) error                  { return nil }
func (tagModule) DropCapabilities(*Task, []Capability, bool) error { return nil }
func (tagModule) RestoreCapabilities(*Task) error                  { return nil }
func (tagModule) WriteCapability(*Task, Capability, *File) error   { return nil }
func (tagModule) ReadCapability(*Task, *File) (Capability, error) {
	return Capability{}, ErrNoSys
}

// denialScript runs one task's deterministic mixed-permission script and
// returns its outcome trace. Each task works only in its own directory,
// so the trace depends on nothing another task does.
func denialScript(k *Kernel, task *Task, i int) []string {
	var trace []string
	record := func(op string, err error) {
		trace = append(trace, fmt.Sprintf("%s=%s", op, errname(err)))
	}
	dir := fmt.Sprintf("/tmp/denial/t%d", i)
	record("mkdir", k.Mkdir(task, dir, 0o755))
	classes := []difc.Labels{
		{},                               // free
		{S: difc.NewLabel(denyReadTag)},  // unreadable
		{S: difc.NewLabel(denyWriteTag)}, // unwritable
		{S: difc.NewLabel(denyReadTag).Union(difc.NewLabel(denyWriteTag))}, // sealed
	}
	for j := 0; j < 40; j++ {
		labels := classes[j%len(classes)]
		path := fmt.Sprintf("%s/f%d", dir, j)
		fd, err := k.CreateFileLabeled(task, path, 0o644, labels)
		record(fmt.Sprintf("create%d", j), err)
		if err == nil {
			// The create descriptor is write-only; the per-op hook decides.
			_, werr := k.Write(task, fd, []byte("x"))
			record(fmt.Sprintf("write%d", j), werr)
			k.Close(task, fd)
		}
		// Reopening triggers the open-time InodePermission check; a read
		// denial must be indistinguishable from a missing file.
		rfd, rerr := k.Open(task, path, ORead)
		record(fmt.Sprintf("open-r%d", j), rerr)
		if rerr == nil {
			buf := make([]byte, 4)
			_, rderr := k.Read(task, rfd, buf)
			record(fmt.Sprintf("read%d", j), rderr)
			k.Close(task, rfd)
		}
		wfd, werr := k.Open(task, path, OWrite)
		record(fmt.Sprintf("open-w%d", j), werr)
		if werr == nil {
			k.Close(task, wfd)
		}
		_, serr := k.Stat(task, path)
		record(fmt.Sprintf("stat%d", j), serr)
		if j%4 == 1 { // the unreadable one: unlink denial must be ENOENT
			record(fmt.Sprintf("unlink%d", j), k.Unlink(task, path))
		}
	}
	return trace
}

// errname collapses an error to its errno identity for trace comparison.
func errname(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNoEnt):
		return "ENOENT"
	case errors.Is(err, ErrAccessRead):
		return "EACCES-read"
	case errors.Is(err, ErrAccess):
		return "EACCES"
	case errors.Is(err, ErrPerm):
		return "EPERM"
	case errors.Is(err, ErrAgain):
		return "EAGAIN"
	case errors.Is(err, ErrExist):
		return "EEXIST"
	default:
		return err.Error()
	}
}

// runDenialStorm boots a kernel in the given lock mode, runs every task's
// script concurrently, and returns the per-task traces plus the kernel's
// hook-call count.
func runDenialStorm(t *testing.T, nTasks int, opts ...Option) ([][]string, uint64) {
	t.Helper()
	k := New(append([]Option{WithSecurityModule(tagModule{})}, opts...)...)
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/denial", 0o755); err != nil {
		t.Fatal(err)
	}
	tasks := make([]*Task, nTasks)
	for i := range tasks {
		task, err := k.Spawn(init, nil)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	traces := make([][]string, nTasks)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = denialScript(k, tasks[i], i)
		}(i)
	}
	waitOrDeadlock(t, &wg)
	return traces, k.HookCalls()
}

// TestStormDenialEquivalence runs identical deterministic per-task
// permission scripts concurrently on the sharded kernel and on the serial
// big-lock kernel and demands byte-identical outcome traces: every denial
// fail-closed, every read denial hidden as ENOENT, no denial appearing or
// vanishing because of the locking discipline. Hook-call counts must also
// match — the sharded kernel may not skip or duplicate a single check.
func TestStormDenialEquivalence(t *testing.T) {
	const nTasks = 8
	sharded, shardedHooks := runDenialStorm(t, nTasks)
	serial, serialHooks := runDenialStorm(t, nTasks, WithBigLock())
	for i := range sharded {
		if len(sharded[i]) != len(serial[i]) {
			t.Fatalf("task %d: trace length %d (sharded) vs %d (big lock)", i, len(sharded[i]), len(serial[i]))
		}
		for j := range sharded[i] {
			if sharded[i][j] != serial[i][j] {
				t.Errorf("task %d step %d: sharded %q != big lock %q", i, j, sharded[i][j], serial[i][j])
			}
		}
	}
	if shardedHooks != serialHooks {
		t.Errorf("hook calls: sharded %d != big lock %d", shardedHooks, serialHooks)
	}
	// Spot-check fail-closed shape: the 0o000 files must deny reads as
	// ENOENT on path ops (stat) and never grant; scan one task's trace.
	var sawHiddenStat bool
	for _, step := range sharded[0] {
		if step == "stat1=ENOENT" {
			sawHiddenStat = true
		}
	}
	if !sawHiddenStat {
		t.Errorf("expected stat of unreadable file to be hidden as ENOENT; trace: %v", sharded[0])
	}
}
