package eval

// Million-principal hot-path benchmark: sharded locking and batched
// checks against the old per-op protocol. A write-dominated storm runs
// under three protocol configurations:
//
//   - biglock / scalar — the old kernel end to end (baseline)
//   - sharded / scalar — locking refactor only
//   - sharded / vec    — plus WriteVec batching
//
// Every task writes through labels big enough to be heap-represented
// (seven tags), so each verdict pays real label work: two CheckFlow
// subset walks over heap labels. The vectored path pays them once per
// batch and amortizes the rest of the fixed per-syscall dispatch work
// (entry lock, descriptor lookup, hook) across it too. Throughput counts
// LOGICAL writes: one vector element is one op, so scalar and vec rows
// are directly comparable.
//
// The headline — and the PR gate — is new protocol (sharded+vec) vs old
// protocol (biglock+scalar) at GOMAXPROCS=8. The experiment keeps its
// -verdictcache name and BENCH_verdictcache.json path from when a
// per-task verdict cache was one of its dimensions.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// VCRow is one (GOMAXPROCS, lock mode, write path) cell.
type VCRow struct {
	Procs      int     `json:"gomaxprocs"`
	Mode       string  `json:"lock_mode"`  // "biglock" or "sharded"
	Path       string  `json:"write_path"` // "scalar" or "vec"
	Ops        int     `json:"logical_writes"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	SpeedupVsB float64 `json:"speedup_vs_old_protocol"` // this row / biglock+scalar at same procs
}

// VerdictCacheReport is the full matrix plus the gated headline.
type VerdictCacheReport struct {
	Tasks         int     `json:"tasks"`
	WritesPerTask int     `json:"writes_per_task"`
	Batch         int     `json:"vec_batch"`
	HWThreads     int     `json:"hw_threads"`
	Rows          []VCRow `json:"rows"`
	// Headline is new-protocol (sharded, vec) throughput over
	// old-protocol (biglock, scalar) at GOMAXPROCS=8.
	Headline float64 `json:"headline_speedup"`
	GateMin  float64 `json:"gate_min"`
	Pass     bool    `json:"pass"`
}

// vcWriteSize is the payload per logical write.
const vcWriteSize = 64

// vcStormSetup holds one booted system's tasks and open descriptors.
type vcStormSetup struct {
	k     *kernel.Kernel
	tasks []*kernel.Task
	fds   []kernel.FD
}

// vcSetup boots a system and prepares nTasks writers. Each task taints
// itself with six fresh tags and writes to a private file labeled with a
// strict superset (a seventh tag), so every write verdict is a real
// subset decision between distinct heap-represented labels —
// the shape a million-principal deployment's hot path has.
func vcSetup(nTasks int, opts ...kernel.Option) (*vcStormSetup, error) {
	sys := laminar.NewSystem(opts...)
	k := sys.Kernel()
	init := k.InitTask()
	if err := k.Mkdir(init, "/tmp/vc", 0o755); err != nil {
		return nil, err
	}
	s := &vcStormSetup{k: k}
	for i := 0; i < nTasks; i++ {
		t, err := k.Spawn(init, nil)
		if err != nil {
			return nil, err
		}
		var tags []difc.Tag
		for j := 0; j < 7; j++ {
			tag, err := k.AllocTag(t)
			if err != nil {
				return nil, err
			}
			tags = append(tags, tag)
		}
		taskS := difc.NewLabel(tags[:6]...)
		fileS := difc.NewLabel(tags...)
		// Create while still unlabeled (the unlabeled parent directory
		// must accept the dirent write), then raise the task's label; the
		// held capabilities authorize both steps.
		path := fmt.Sprintf("/tmp/vc/f%d", i)
		fd, err := k.CreateFileLabeled(t, path, 0o600, difc.Labels{S: fileS})
		if err != nil {
			return nil, err
		}
		if err := k.SetTaskLabel(t, kernel.Secrecy, taskS); err != nil {
			return nil, err
		}
		s.tasks = append(s.tasks, t)
		s.fds = append(s.fds, fd)
	}
	return s, nil
}

// vcStorm issues writesPerTask logical writes from every task and returns
// the wall time of the storm phase. batch == 1 uses scalar Write; batch >
// 1 uses WriteVec in batch-sized vectors. Files are rewound periodically
// so data volume stays constant across configurations.
func (s *vcStormSetup) vcStorm(writesPerTask, batch int) (time.Duration, error) {
	payload := make([]byte, vcWriteSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	const rewindEvery = 32 // logical writes between Seek(0)
	errs := make([]error, len(s.tasks))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range s.tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, t, fd := s.k, s.tasks[i], s.fds[i]
			if batch <= 1 {
				for w := 0; w < writesPerTask; w++ {
					if _, err := k.Write(t, fd, payload); err != nil {
						errs[i] = err
						return
					}
					if (w+1)%rewindEvery == 0 {
						if err := k.Seek(t, fd, 0); err != nil {
							errs[i] = err
							return
						}
					}
				}
				return
			}
			chunks := make([][]byte, batch)
			for c := range chunks {
				chunks[c] = payload
			}
			for w := 0; w < writesPerTask; w += batch {
				if _, err := k.WriteVec(t, fd, chunks); err != nil {
					errs[i] = err
					return
				}
				if (w+batch)%rewindEvery == 0 {
					if err := k.Seek(t, fd, 0); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

// VerdictCache runs the protocol matrix. batch is the WriteVec vector
// length for the vec rows; writesPerTask should be a multiple of it.
func VerdictCache(nTasks, writesPerTask, batch, trials int) (*VerdictCacheReport, error) {
	rep := &VerdictCacheReport{
		Tasks:         nTasks,
		WritesPerTask: writesPerTask,
		Batch:         batch,
		HWThreads:     runtime.NumCPU(),
		GateMin:       1.5,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	type cfg struct{ mode, path string }
	cfgs := []cfg{
		{"biglock", "scalar"}, // old protocol, baseline
		{"sharded", "scalar"},
		{"sharded", "vec"}, // new protocol, headline
	}
	totalOps := nTasks * writesPerTask
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		var baseOps float64
		for _, c := range cfgs {
			var opts []kernel.Option
			if c.mode == "biglock" {
				opts = append(opts, kernel.WithBigLock())
			}
			b := 1
			if c.path == "vec" {
				b = batch
			}
			best := time.Duration(0)
			for tr := 0; tr < trials; tr++ {
				s, err := vcSetup(nTasks, opts...)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return nil, fmt.Errorf("%s/%s p=%d setup: %w", c.mode, c.path, procs, err)
				}
				wall, err := s.vcStorm(writesPerTask, b)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return nil, fmt.Errorf("%s/%s p=%d: %w", c.mode, c.path, procs, err)
				}
				if best == 0 || wall < best {
					best = wall
				}
			}
			row := VCRow{
				Procs:     procs,
				Mode:      c.mode,
				Path:      c.path,
				Ops:       totalOps,
				NsPerOp:   float64(best.Nanoseconds()) / float64(totalOps),
				OpsPerSec: float64(totalOps) / best.Seconds(),
			}
			if c.mode == "biglock" {
				baseOps = row.OpsPerSec
			} else if baseOps > 0 {
				row.SpeedupVsB = row.OpsPerSec / baseOps
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	runtime.GOMAXPROCS(prev)

	for _, r := range rep.Rows {
		if r.Procs == 8 && r.Mode == "sharded" && r.Path == "vec" {
			rep.Headline = r.SpeedupVsB
		}
	}
	rep.Pass = rep.Headline >= rep.GateMin
	return rep, nil
}

// JSON renders the report for BENCH_verdictcache.json.
func (r *VerdictCacheReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the paper-style text table.
func (r *VerdictCacheReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Hot path: old protocol vs sharded + batched writes"))
	fmt.Fprintf(&b, "%d tasks × %d labeled writes each (7-tag heap labels); vec batch %d; %d hardware thread(s)\n\n",
		r.Tasks, r.WritesPerTask, r.Batch, r.HWThreads)
	fmt.Fprintf(&b, "%6s %9s %7s %12s %14s %9s\n",
		"procs", "mode", "path", "ns/write", "writes/sec", "speedup")
	for _, row := range r.Rows {
		sp := ""
		if row.SpeedupVsB > 0 {
			sp = fmt.Sprintf("%7.2fx", row.SpeedupVsB)
		}
		fmt.Fprintf(&b, "%6d %9s %7s %12.0f %14.0f %9s\n",
			row.Procs, row.Mode, row.Path, row.NsPerOp, row.OpsPerSec, sp)
	}
	fmt.Fprintf(&b, "\nheadline: sharded+vec vs biglock+scalar at GOMAXPROCS=8: %.2fx (gate ≥%.2fx: %s)\n",
		r.Headline, r.GateMin, map[bool]string{true: "pass", false: "FAIL"}[r.Pass])
	b.WriteString("every write re-derives its verdict from two heap-label subset\n" +
		"walks; batching pays them once per vector and amortizes the fixed\n" +
		"syscall dispatch (entry lock, fd lookup, hook) across it too.\n" +
		"Throughput counts logical writes: a vector element is one op.\n")
	return b.String()
}
