package eval

// Syscall-storm benchmark: one rig times a multi-task kernel storm under
// every kernel configuration the repository gates on. Three workloads:
//
//   - mixed: unlabeled tasks, each in a private directory, loop a
//     12-syscall mix (create, 3 writes, reopen, read, stat, plus a pipe
//     round trip). The op mix is identical across configurations; only
//     the interleaving differs.
//   - write: each task taints itself with six fresh tags and writes 64
//     bytes per op to a private file labeled with a seventh tag on top,
//     so every verdict is a real subset walk between heap labels.
//   - writevec: the write storm through WriteVec in batches of 16; one
//     vector element is one op, so write and writevec rows compare.
//
// The option axes are the lock mode (biglock, sharded), the recorder
// (none: booted WithoutTelemetry; off, deny, all: a private recorder at
// that level), the modeled device time per data transfer
// (WithIOLatency; 0 is the cpu storm, 30µs the io storm) and GOMAXPROCS.
// Each row is timed best-of-trials and divided by a named reference
// cell. Three headlines are read out of the rows, two of them gated:
//
//   - io sharded/biglock at GOMAXPROCS=8: the big lock holds the lock
//     across modeled device waits, so I/O from different tasks
//     serializes; sharded locking overlaps the waits.
//   - hot path, writevec sharded over write biglock at GOMAXPROCS=8:
//     gate ≥1.5×.
//   - io recorder off over none at GOMAXPROCS=8, the disabled-path
//     telemetry overhead: gate ≤1.02×.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// MixedIterSyscalls is the number of syscalls one iteration of the mixed
// storm counts, so the smallest mixed size that issues anything.
const MixedIterSyscalls = 12

// Storm gates and fixed sizes.
const (
	hotPathGateMin   = 1.5  // writevec sharded over write biglock at GOMAXPROCS=8
	telemetryGateMax = 1.02 // io recorder off over none at GOMAXPROCS=8

	stormIOus        = 30 // modeled device time per transfer in the io rows, µs
	stormBatch       = 16 // WriteVec vector length
	stormWriteSize   = 64 // payload per logical write
	stormRewindEvery = 32 // logical writes between Seek(0), so data volume stays constant
)

// StormRow is one storm cell: a workload under one kernel configuration.
type StormRow struct {
	Workload  string  `json:"workload"`      // mixed, write or writevec
	IOus      int     `json:"io_latency_us"` // modeled device time per transfer
	Procs     int     `json:"gomaxprocs"`
	Lock      string  `json:"lock_mode"` // biglock or sharded
	Recorder  string  `json:"recorder"`  // none, off, deny or all
	Ops       int     `json:"ops"`       // operations issued, all tasks
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Ref       string  `json:"ref"`            // Key of the reference cell; its own for a reference
	Speedup   float64 `json:"speedup_vs_ref"` // the reference's ns/op over this row's
}

// key names the row's cell.
func (r *StormRow) key() string {
	return fmt.Sprintf("%s/io%dus/p%d/%s/%s", r.Workload, r.IOus, r.Procs, r.Lock, r.Recorder)
}

// StormReport is the storm matrix plus its headlines and gates.
type StormReport struct {
	Tasks         int        `json:"tasks"`
	MixedOps      int        `json:"mixed_ops_per_task"`
	WritesPerTask int        `json:"writes_per_task"`
	Batch         int        `json:"vec_batch"`
	HWThreads     int        `json:"hw_threads"`
	Rows          []StormRow `json:"rows"`

	HeadlineIO      float64 `json:"headline_io_speedup"`       // mixed io sharded/biglock, p8
	HeadlineHotPath float64 `json:"headline_hot_path_speedup"` // writevec sharded over write biglock, p8
	HeadlineIOOff   float64 `json:"headline_io_off_overhead"`  // mixed io recorder off/none ns/op, p8

	HotPathGateMin   float64 `json:"hot_path_gate_min"`
	TelemetryGateMax float64 `json:"telemetry_gate_max"`
	HotPathPass      bool    `json:"hot_path_pass"`
	TelemetryPass    bool    `json:"telemetry_pass"`
}

// stormMatrix lists every cell in run order, each naming its reference.
func stormMatrix() []StormRow {
	var rows []StormRow
	add := func(wl string, io, procs int, lock, rec, ref string) string {
		rows = append(rows, StormRow{Workload: wl, IOus: io, Procs: procs, Lock: lock, Recorder: rec, Ref: ref})
		r := &rows[len(rows)-1]
		if ref == "" {
			r.Ref = r.key()
		}
		return r.key()
	}
	for _, io := range []int{0, stormIOus} {
		for _, procs := range []int{1, 4, 8} {
			// Each pair a headline or a test bound compares runs back to
			// back: biglock then off, off then none.
			big := add("mixed", io, procs, "biglock", "off", "")
			add("mixed", io, procs, "sharded", "off", big)
			if procs == 8 {
				none := add("mixed", io, procs, "sharded", "none", "")
				add("mixed", io, procs, "sharded", "deny", none)
				add("mixed", io, procs, "sharded", "all", none)
			}
		}
	}
	for _, procs := range []int{1, 8} {
		big := add("write", 0, procs, "biglock", "off", "")
		add("write", 0, procs, "sharded", "off", big)
		add("writevec", 0, procs, "sharded", "off", big)
	}
	return rows
}

// recorderLevels maps each recorder axis value but "none" to its level.
var recorderLevels = map[string]telemetry.Level{
	"off":  telemetry.LevelOff,
	"deny": telemetry.LevelDeny,
	"all":  telemetry.LevelAll,
}

// options boots the row's kernel configuration; each call makes a
// private recorder, so rings and counters never cross cells or trials.
func (r *StormRow) options() []kernel.Option {
	var opts []kernel.Option
	if r.IOus > 0 {
		opts = append(opts, kernel.WithIOLatency(time.Duration(r.IOus)*time.Microsecond))
	}
	if r.Lock == "biglock" {
		opts = append(opts, kernel.WithBigLock())
	}
	if r.Recorder == "none" {
		return append(opts, kernel.WithoutTelemetry())
	}
	rec := telemetry.NewRecorder()
	rec.SetLevel(recorderLevels[r.Recorder])
	return append(opts, kernel.WithTelemetry(rec))
}

// stormBody is one task's share of a storm; it returns the operations
// it issued.
type stormBody func() (int, error)

// runStorm starts every body at once, waits for all of them, and
// returns the wall time and the operations issued.
func runStorm(bodies []stormBody) (time.Duration, int, error) {
	ops := make([]int, len(bodies))
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	start := time.Now()
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[i], errs[i] = body()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := 0
	for _, n := range ops {
		total += n
	}
	return wall, total, errors.Join(errs...)
}

// mixedSetup spawns unlabeled tasks, each with a private directory, and
// returns their bodies: iters iterations of the mixed loop each.
func mixedSetup(k *kernel.Kernel, tasks, iters int) ([]stormBody, error) {
	init := k.InitTask()
	bodies := make([]stormBody, tasks)
	for i := range bodies {
		t, err := k.Spawn(init, nil)
		if err != nil {
			return nil, err
		}
		dir := fmt.Sprintf("/tmp/storm%d", i)
		if err := k.Mkdir(t, dir, 0o755); err != nil {
			return nil, err
		}
		bodies[i] = func() (int, error) { return iters * MixedIterSyscalls, mixedTask(k, t, dir, iters) }
	}
	return bodies, nil
}

// mixedTask runs iters iterations of the mixed loop in dir. Each counts
// MixedIterSyscalls kernel entries; the two pipe closes that end it are
// not counted.
func mixedTask(k *kernel.Kernel, t *kernel.Task, dir string, iters int) error {
	buf := make([]byte, 64)
	for i := 0; i < iters; i++ {
		path := fmt.Sprintf("%s/f%d", dir, i%8)
		fd, err := k.Open(t, path, kernel.OWrite|kernel.OCreate) // 1
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		for j := 0; j < 3; j++ {
			if _, err := k.Write(t, fd, []byte("storm-payload-64-bytes.........................................")); err != nil { // 2,3,4
				return fmt.Errorf("write: %w", err)
			}
		}
		k.Close(t, fd)                            // 5
		rfd, err := k.Open(t, path, kernel.ORead) // 6
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if _, err := k.Read(t, rfd, buf); err != nil { // 7
			return fmt.Errorf("read: %w", err)
		}
		k.Close(t, rfd)                            // 8
		if _, err := k.Stat(t, path); err != nil { // 9
			return fmt.Errorf("stat: %w", err)
		}
		pr, pw, err := k.Pipe(t) // 10
		if err != nil {
			return fmt.Errorf("pipe: %w", err)
		}
		if _, err := k.Write(t, pw, buf[:16]); err != nil { // 11
			return fmt.Errorf("pipe write: %w", err)
		}
		if _, err := k.Read(t, pr, buf[:16]); err != nil { // 12
			return fmt.Errorf("pipe read: %w", err)
		}
		k.Close(t, pr)
		k.Close(t, pw)
	}
	return nil
}

// writeSetup prepares labeled writers and returns their bodies, each
// writing writes logical writes in batch-sized vectors (batch 1: scalar
// Write). Each task holds six fresh tags and writes to a private file
// labeled with those six plus a seventh, so every write verdict is a
// subset decision between distinct heap-represented labels.
func writeSetup(k *kernel.Kernel, tasks, writes, batch int) ([]stormBody, error) {
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/vc", 0o755); err != nil {
		return nil, err
	}
	payload := make([]byte, stormWriteSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	bodies := make([]stormBody, tasks)
	for i := range bodies {
		t, err := k.Spawn(init, nil)
		if err != nil {
			return nil, err
		}
		tags := make([]difc.Tag, 7)
		for j := range tags {
			if tags[j], err = k.AllocTag(t); err != nil {
				return nil, err
			}
		}
		// Create while still unlabeled (the unlabeled parent directory
		// must accept the dirent write), then raise the task's label; the
		// held capabilities authorize both steps.
		fd, err := k.CreateFileLabeled(t, fmt.Sprintf("/tmp/vc/f%d", i), 0o600, difc.Labels{S: difc.NewLabel(tags...)})
		if err != nil {
			return nil, err
		}
		if err := k.SetTaskLabel(t, kernel.Secrecy, difc.NewLabel(tags[:6]...)); err != nil {
			return nil, err
		}
		bodies[i] = func() (int, error) { return writeTask(k, t, fd, payload, writes, batch) }
	}
	return bodies, nil
}

// writeTask issues batches until at least writes logical writes are out,
// rewinding every stormRewindEvery of them.
func writeTask(k *kernel.Kernel, t *kernel.Task, fd kernel.FD, payload []byte, writes, batch int) (int, error) {
	chunks := make([][]byte, batch)
	for c := range chunks {
		chunks[c] = payload
	}
	w := 0
	for w < writes {
		var err error
		if batch == 1 {
			_, err = k.Write(t, fd, payload)
		} else {
			_, err = k.WriteVec(t, fd, chunks)
		}
		if err != nil {
			return w, err
		}
		w += batch
		if w%stormRewindEvery == 0 {
			if err := k.Seek(t, fd, 0); err != nil {
				return w, err
			}
		}
	}
	return w, nil
}

// measure boots the row's configuration once per trial, runs its storm,
// and fills the row's rates from the fastest trial.
func (r *StormRow) measure(tasks, mixedOps, writes, trials int) error {
	best, err := minTime(trials, func() (time.Duration, error) {
		k := laminar.NewSystem(r.options()...).Kernel()
		var bodies []stormBody
		var err error
		switch r.Workload {
		case "mixed":
			bodies, err = mixedSetup(k, tasks, mixedOps/MixedIterSyscalls)
		case "write":
			bodies, err = writeSetup(k, tasks, writes, 1)
		case "writevec":
			bodies, err = writeSetup(k, tasks, writes, stormBatch)
		}
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		wall, ops, err := runStorm(bodies)
		r.Ops = ops
		return wall, err
	})
	if err != nil {
		return err
	}
	r.NsPerOp = float64(best.Nanoseconds()) / float64(r.Ops)
	r.OpsPerSec = float64(r.Ops) / best.Seconds()
	return nil
}

// Storm runs the matrix: tasks concurrent tasks, mixedOps syscalls per
// task in the mixed rows and writes logical writes per task in the write
// rows. A size that issues no operation is refused before anything runs.
func Storm(tasks, mixedOps, writes, trials int) (*StormReport, error) {
	if tasks < 1 || mixedOps < MixedIterSyscalls || writes < 1 {
		return nil, fmt.Errorf("storm sizes %d tasks, %d mixed syscalls, %d writes: need at least 1, %d and 1",
			tasks, mixedOps, writes, MixedIterSyscalls)
	}
	rep := &StormReport{
		Tasks:            tasks,
		MixedOps:         mixedOps,
		WritesPerTask:    writes,
		Batch:            stormBatch,
		HWThreads:        runtime.NumCPU(),
		Rows:             stormMatrix(),
		HotPathGateMin:   hotPathGateMin,
		TelemetryGateMax: telemetryGateMax,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	byKey := map[string]*StormRow{}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		runtime.GOMAXPROCS(r.Procs)
		if err := r.measure(tasks, mixedOps, writes, trials); err != nil {
			return nil, fmt.Errorf("%s: %w", r.key(), err)
		}
		byKey[r.key()] = r
	}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		r.Speedup = byKey[r.Ref].NsPerOp / r.NsPerOp
	}
	ioOff := byKey[fmt.Sprintf("mixed/io%dus/p8/sharded/off", stormIOus)]
	rep.HeadlineIO = ioOff.Speedup
	rep.HeadlineHotPath = byKey["writevec/io0us/p8/sharded/off"].Speedup
	rep.HeadlineIOOff = ioOff.NsPerOp / byKey[fmt.Sprintf("mixed/io%dus/p8/sharded/none", stormIOus)].NsPerOp
	rep.HotPathPass = rep.HeadlineHotPath >= rep.HotPathGateMin
	rep.TelemetryPass = rep.HeadlineIOOff <= rep.TelemetryGateMax
	return rep, nil
}

// Gate returns why the run misses a gate, or "" when it passes both.
func (r *StormReport) Gate() string {
	var miss []string
	if !r.HotPathPass {
		miss = append(miss, fmt.Sprintf("hot-path headline speedup %.2fx misses the %.2fx gate", r.HeadlineHotPath, r.HotPathGateMin))
	}
	if !r.TelemetryPass {
		miss = append(miss, fmt.Sprintf("telemetry disabled-path overhead %.3fx exceeds %.2fx gate", r.HeadlineIOOff, r.TelemetryGateMax))
	}
	return strings.Join(miss, "; ")
}

// Format renders the paper-style text table.
func (r *StormReport) Format() string {
	verdict := map[bool]string{true: "PASS", false: "FAIL"}
	var b strings.Builder
	b.WriteString(header("Syscall storms: lock mode, batched writes and telemetry recording"))
	fmt.Fprintf(&b, "%d tasks; mixed: %d syscalls each, unlabeled; write/writevec: %d writes each, 6-tag tasks on 7-tag files, vec batch %d;\n"+
		"io rows model %dµs device time per transfer; %d hardware thread(s)\n\n",
		r.Tasks, r.MixedOps, r.WritesPerTask, r.Batch, stormIOus, r.HWThreads)
	fmt.Fprintf(&b, "%-8s %5s %5s %8s %8s %10s %12s %9s  %s\n",
		"workload", "io_us", "procs", "lock", "recorder", "ns/op", "ops/sec", "vs ref", "ref")
	for _, row := range r.Rows {
		ref := row.Ref
		if ref == row.key() {
			ref = "-"
		}
		fmt.Fprintf(&b, "%-8s %5d %5d %8s %8s %10.0f %12.0f %8.2fx  %s\n",
			row.Workload, row.IOus, row.Procs, row.Lock, row.Recorder, row.NsPerOp, row.OpsPerSec, row.Speedup, ref)
	}
	fmt.Fprintf(&b, "\nheadline: io-storm sharded/biglock throughput at GOMAXPROCS=8: %.2fx\n", r.HeadlineIO)
	fmt.Fprintf(&b, "gate: hot path, writevec sharded over write biglock at GOMAXPROCS=8: %.2fx, at least %.2fx: %s\n",
		r.HeadlineHotPath, r.HotPathGateMin, verdict[r.HotPathPass])
	fmt.Fprintf(&b, "gate: io-storm disabled-path (recorder off/none) overhead %.3fx, at most %.2fx: %s\n",
		r.HeadlineIOOff, r.TelemetryGateMax, verdict[r.TelemetryPass])
	b.WriteString("vs ref is the reference cell's ns/op over the row's. The big lock holds\n" +
		"the lock across modeled device waits, so io rows measure how those\n" +
		"sleeps overlap; cpu rows (io_us 0) isolate locking overhead. Every\n" +
		"write re-derives its verdict from two heap-label subset walks; a\n" +
		"vector pays them once and is counted as one op per element.\n" +
		"\"none\" boots with no recorder, so the kernel's hook gate skips even\n" +
		"the level load; \"off\" is the production default: a recorder whose\n" +
		"one atomic level load per hook is the whole disabled-path cost;\n" +
		"\"deny\" adds always-on counters and latency timing; \"all\"\n" +
		"records every allow.\n")
	return b.String()
}
