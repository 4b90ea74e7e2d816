package kernel_test

// Relabel-versus-I/O concurrency battery (run under -race). The
// security module re-derives every verdict from the current labels;
// these storms drive the interleavings that would expose a verdict
// computed against labels that are no longer the task's, or an
// unsynchronized label or file structure:
//
//   - tasks toggling their own labels (SetTaskLabel) while other tasks
//     do I/O and the togglers probe a shared inode — a verdict derived
//     from the wrong labels shows up as a concrete wrong allow/deny,
//     asserted per operation;
//   - hot private-file I/O, scalar and batched (WriteVec), from many
//     tasks at once against one sharded kernel with the real LSM;
//   - fault-injected torn WriteVec batches, with a byte-level sweep
//     proving tears only ever happen at element boundaries: no chunk is
//     ever half-written, and everything below the final offset is the
//     exact concatenation of the successful batches.
//
// This file is an external test (package kernel_test) so it can load the
// real Laminar LSM.

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
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

const stormTimeout = 2 * time.Minute

func stormWaitOrDeadlock(t *testing.T, wg *sync.WaitGroup) {
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

// stormSystem boots a sharded kernel with the Laminar LSM (plus any extra
// options), mirroring laminar.NewSystem.
func stormSystem(opts ...kernel.Option) (*kernel.Kernel, *lsm.Module) {
	mod := lsm.New()
	base := []kernel.Option{kernel.WithSecurityModule(mod)}
	k := kernel.New(append(base, opts...)...)
	mod.InstallSystemIntegrity(k)
	return k, mod
}

// TestLabelChurnVerdictsRace races label churn against I/O: every task
// repeatedly taints itself with its own tag, probes a shared unlabeled
// file (which MUST deny the write while tainted), clears the taint, and
// probes again (which MUST allow). The expected verdict at every step is
// a pure function of the task's own label — which only the task itself
// mutates — so a verdict derived from stale labels surfaces as a hard
// wrong answer, not a flake. Between toggles the task hammers private
// files with scalar writes and WriteVec batches while its neighbours
// churn their own labels.
func TestLabelChurnVerdictsRace(t *testing.T) {
	const (
		nTasks = 10
		nOps   = 300
	)
	k, _ := stormSystem()
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/vstorm", 0o755); err != nil {
		t.Fatal(err)
	}
	// Shared unlabeled target: writable by an untainted task, unwritable
	// by a tainted one (secrecy must not flow down to an unlabeled file).
	sfd, err := k.Open(init, "/tmp/vstorm/shared", kernel.OWrite|kernel.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	k.Close(init, sfd)

	tasks := make([]*kernel.Task, nTasks)
	tags := make([]difc.Tag, nTasks)
	for i := range tasks {
		task, err := k.Spawn(init, nil)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
		tag, err := k.AllocTag(task)
		if err != nil {
			t.Fatalf("task %d: alloc tag: %v", i, err)
		}
		tags[i] = tag
	}

	// taintedProbes and cleanProbes count completed probes on each side
	// of a toggle, so a storm that never reached them fails loudly.
	var taintedProbes, cleanProbes atomic.Int64
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task, tag := tasks[i], tags[i]
			rng := rand.New(rand.NewSource(int64(i) + 100))
			dir := fmt.Sprintf("/tmp/vstorm/t%d", i)
			if err := k.Mkdir(task, dir, 0o755); err != nil {
				t.Errorf("task %d: mkdir: %v", i, err)
				return
			}
			// probeShared opens the shared file for writing and writes a
			// byte; it returns the first denial, or nil if both succeed.
			probeShared := func() error {
				fd, err := k.Open(task, "/tmp/vstorm/shared", kernel.OWrite)
				if err != nil {
					return err
				}
				defer k.Close(task, fd)
				if _, err := k.Write(task, fd, []byte{byte(i)}); err != nil {
					return err
				}
				return nil
			}
			for op := 0; op < nOps; op++ {
				switch rng.Intn(4) {
				case 0: // taint → must deny → untaint → must allow
					if err := k.SetTaskLabel(task, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
						t.Errorf("task %d op %d: taint: %v", i, op, err)
						continue
					}
					if err := probeShared(); err == nil {
						t.Errorf("task %d op %d: STALE ALLOW: tainted write to unlabeled file succeeded", i, op)
					}
					taintedProbes.Add(1)
					if err := k.SetTaskLabel(task, kernel.Secrecy, difc.EmptyLabel); err != nil {
						t.Errorf("task %d op %d: untaint: %v", i, op, err)
						continue
					}
					if err := probeShared(); err != nil {
						t.Errorf("task %d op %d: STALE DENY: untainted write to unlabeled file failed: %v", i, op, err)
					}
					cleanProbes.Add(1)
				case 1: // scalar round trip on a private file
					path := fmt.Sprintf("%s/f%d", dir, op)
					fd, err := k.Open(task, path, kernel.ORead|kernel.OWrite|kernel.OCreate)
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
				case 2: // batched writes on a private file, read back byte-exact
					path := fmt.Sprintf("%s/v%d", dir, op)
					fd, err := k.Open(task, path, kernel.ORead|kernel.OWrite|kernel.OCreate)
					if err != nil {
						t.Errorf("task %d: open %s: %v", i, path, err)
						continue
					}
					chunks := [][]byte{
						[]byte(fmt.Sprintf("t%d-", i)),
						[]byte(fmt.Sprintf("v%d-", op)),
						[]byte("tail"),
					}
					want := fmt.Sprintf("t%d-v%d-tail", i, op)
					if n, err := k.WriteVec(task, fd, chunks); err != nil || n != len(want) {
						t.Errorf("task %d: writevec: n=%d err=%v", i, n, err)
					}
					if err := k.Seek(task, fd, 0); err != nil {
						t.Errorf("task %d: seek: %v", i, err)
					}
					buf := make([]byte, len(want)+8)
					if n, err := k.Read(task, fd, buf); err != nil || string(buf[:n]) != want {
						t.Errorf("task %d: vec read back %q, %v (want %q)", i, buf[:n], err, want)
					}
					k.Close(task, fd)
				default: // cross-task pressure: dup a pipe end to the neighbor
					rfd, wfd, err := k.Pipe(task)
					if err != nil {
						continue
					}
					k.DupTo(task, rfd, tasks[(i+1)%nTasks])
					k.Close(task, rfd)
					k.Close(task, wfd)
				}
			}
		}(i)
	}
	stormWaitOrDeadlock(t, &wg)

	// The storm must actually have probed both sides of a toggle.
	if taintedProbes.Load() == 0 || cleanProbes.Load() == 0 {
		t.Errorf("storm completed %d tainted and %d untainted probes; the relabel race was never checked",
			taintedProbes.Load(), cleanProbes.Load())
	}
}

// TestWriteVecTornBatchRace fault-injects errors into the batched write
// path while many tasks append batches to private files concurrently,
// then sweeps every file for the two torn-batch invariants:
//
//  1. Element-boundary tearing only: every chunk-aligned block is
//     uniform — a block mixing two batches' bytes would mean a chunk was
//     half-written, which WriteVec's contract forbids.
//  2. Offset discipline: a torn batch does not advance the offset, so
//     the bytes below the sum of successful batch sizes are exactly the
//     successful batches in order.
func TestWriteVecTornBatchRace(t *testing.T) {
	const (
		nTasks   = 8
		nBatches = 200
		nChunks  = 4
		chunk    = 8
	)
	plan := faultinject.NewPlan(1234)
	plan.SetRates("fs.writev", faultinject.Rates{Error: 0.25})
	k, _ := stormSystem(kernel.WithFaultInjector(plan))
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/torn", 0o755); err != nil {
		t.Fatal(err)
	}
	tasks := make([]*kernel.Task, nTasks)
	for i := range tasks {
		task, err := k.Spawn(init, nil)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}

	// ok[i] records which batch numbers task i's WriteVec reported success
	// for; the sweep reconstructs the expected prefix from it.
	ok := make([][]bool, nTasks)
	var torn [nTasks]int
	var wg sync.WaitGroup
	for i := range tasks {
		ok[i] = make([]bool, nBatches)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := tasks[i]
			path := fmt.Sprintf("/tmp/torn/f%d", i)
			fd, err := k.Open(task, path, kernel.OWrite|kernel.OCreate)
			if err != nil {
				t.Errorf("task %d: open: %v", i, err)
				return
			}
			defer k.Close(task, fd)
			for b := 0; b < nBatches; b++ {
				chunks := make([][]byte, nChunks)
				for c := range chunks {
					block := make([]byte, chunk)
					for j := range block {
						block[j] = byte(b) // one batch, one byte value
					}
					chunks[c] = block
				}
				if _, err := k.WriteVec(task, fd, chunks); err != nil {
					if errors.Is(err, kernel.ErrBadF) || errors.Is(err, kernel.ErrInval) {
						t.Errorf("task %d batch %d: unexpected %v", i, b, err)
					}
					torn[i]++ // injected fault: batch torn, offset held
					continue
				}
				ok[i][b] = true
			}
		}(i)
	}
	stormWaitOrDeadlock(t, &wg)

	tornTotal := 0
	for i := range torn {
		tornTotal += torn[i]
	}
	if tornTotal == 0 {
		t.Fatal("fault plan tore zero batches; the torn-batch invariants were never tested")
	}

	for i := 0; i < nTasks; i++ {
		path := fmt.Sprintf("/tmp/torn/f%d", i)
		fd, err := k.Open(init, path, kernel.ORead)
		if err != nil {
			t.Errorf("sweep open %s: %v", path, err)
			continue
		}
		data := make([]byte, 0, nBatches*nChunks*chunk+nChunks*chunk)
		buf := make([]byte, 4096)
		for {
			n, err := k.Read(init, fd, buf)
			if n > 0 {
				data = append(data, buf[:n]...)
			}
			if err != nil || n == 0 {
				break
			}
		}
		k.Close(init, fd)

		// (1) Every chunk-aligned block is uniform: tears happen between
		// elements, never inside one.
		if len(data)%chunk != 0 {
			t.Errorf("%s: length %d not chunk-aligned; a chunk was split", path, len(data))
		}
		for off := 0; off+chunk <= len(data); off += chunk {
			for j := 1; j < chunk; j++ {
				if data[off+j] != data[off] {
					t.Errorf("%s: block at %d mixes bytes %d and %d; chunk half-written",
						path, off, data[off], data[off+j])
					break
				}
			}
		}

		// (2) The committed prefix is the successful batches, in order.
		var want []byte
		for b := 0; b < nBatches; b++ {
			if !ok[i][b] {
				continue
			}
			for c := 0; c < nChunks; c++ {
				for j := 0; j < chunk; j++ {
					want = append(want, byte(b))
				}
			}
		}
		if len(data) < len(want) {
			t.Errorf("%s: holds %d bytes, successful batches wrote %d", path, len(data), len(want))
			continue
		}
		for off := range want {
			if data[off] != want[off] {
				t.Errorf("%s: committed prefix diverges at %d: got %d want %d", path, off, data[off], want[off])
				break
			}
		}
		// Anything past the committed prefix is remnant of a trailing torn
		// batch: at most half a batch of whole chunks.
		if extra := len(data) - len(want); extra > (nChunks/2)*chunk {
			t.Errorf("%s: %d remnant bytes past the committed prefix; torn batches may not land more than half their chunks", path, extra)
		}
	}
}
