package eval

// Million-principal hot-path benchmark: the verdict cache, inline labels
// and batched checks against the old per-op protocol. A write-dominated
// storm runs under four protocol configurations:
//
//   - biglock / scalar / cache off — the old kernel end to end (baseline)
//   - sharded / scalar / cache off — locking refactor only
//   - sharded / scalar / cache on  — plus memoized verdicts
//   - sharded / vec    / cache on  — plus WriteVec batching
//
// Every task writes through labels big enough to be heap-represented
// (seven tags), so the uncached slow path pays real label work: two
// CheckFlow subset walks over heap labels per write.
// The cached path skips all of it — one epoch-guarded array probe — and
// the vectored path additionally amortizes the fixed per-syscall
// dispatch work (entry lock, descriptor lookup, hook, verdict) across
// the batch. Throughput counts LOGICAL writes: one vector element is one
// op, so scalar and vec rows are directly comparable.
//
// The headline — and the PR gate — is new protocol (sharded+vec+cache)
// vs old protocol (biglock+scalar+uncached) at GOMAXPROCS=8.

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

// VCRow is one (GOMAXPROCS, lock mode, write path, cache state) cell.
type VCRow struct {
	Procs      int     `json:"gomaxprocs"`
	Mode       string  `json:"lock_mode"`  // "biglock" or "sharded"
	Path       string  `json:"write_path"` // "scalar" or "vec"
	Cache      bool    `json:"verdict_cache"`
	Ops        int     `json:"logical_writes"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	SpeedupVsB float64 `json:"speedup_vs_old_protocol"` // this row / biglock+scalar+off at same procs
	HitRate    float64 `json:"cache_hit_rate"`          // cache-on rows: hits/(hits+misses) during the storm
}

// VerdictCacheReport is the full matrix plus the gated headline.
type VerdictCacheReport struct {
	Tasks         int     `json:"tasks"`
	WritesPerTask int     `json:"writes_per_task"`
	Batch         int     `json:"vec_batch"`
	HWThreads     int     `json:"hw_threads"`
	Rows          []VCRow `json:"rows"`
	// Headline is new-protocol (sharded, vec, cache) throughput over
	// old-protocol (biglock, scalar, uncached) at GOMAXPROCS=8.
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

	type cfg struct {
		mode  string
		path  string
		cache bool
	}
	cfgs := []cfg{
		{"biglock", "scalar", false}, // old protocol, baseline
		{"sharded", "scalar", false},
		{"sharded", "scalar", true},
		{"sharded", "vec", true}, // new protocol, headline
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
			if c.cache {
				opts = append(opts, kernel.WithVerdictCache())
			}
			b := 1
			if c.path == "vec" {
				b = batch
			}
			best := time.Duration(0)
			var hitRate float64
			for tr := 0; tr < trials; tr++ {
				s, err := vcSetup(nTasks, opts...)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return nil, fmt.Errorf("%s/%s/cache=%v p=%d setup: %w", c.mode, c.path, c.cache, procs, err)
				}
				h0, m0, _ := difc.VerdictCacheStats()
				wall, err := s.vcStorm(writesPerTask, b)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return nil, fmt.Errorf("%s/%s/cache=%v p=%d: %w", c.mode, c.path, c.cache, procs, err)
				}
				h1, m1, _ := difc.VerdictCacheStats()
				if best == 0 || wall < best {
					best = wall
					if dh, dm := h1-h0, m1-m0; dh+dm > 0 {
						hitRate = float64(dh) / float64(dh+dm)
					}
				}
			}
			row := VCRow{
				Procs:     procs,
				Mode:      c.mode,
				Path:      c.path,
				Cache:     c.cache,
				Ops:       totalOps,
				NsPerOp:   float64(best.Nanoseconds()) / float64(totalOps),
				OpsPerSec: float64(totalOps) / best.Seconds(),
				HitRate:   hitRate,
			}
			if c.mode == "biglock" && c.path == "scalar" && !c.cache {
				baseOps = row.OpsPerSec
			} else if baseOps > 0 {
				row.SpeedupVsB = row.OpsPerSec / baseOps
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	runtime.GOMAXPROCS(prev)

	for _, r := range rep.Rows {
		if r.Procs == 8 && r.Mode == "sharded" && r.Path == "vec" && r.Cache {
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
	b.WriteString(header("Verdict cache: old protocol vs memoized + batched hot path"))
	fmt.Fprintf(&b, "%d tasks × %d labeled writes each (7-tag heap labels); vec batch %d; %d hardware thread(s)\n\n",
		r.Tasks, r.WritesPerTask, r.Batch, r.HWThreads)
	fmt.Fprintf(&b, "%6s %9s %7s %6s %12s %14s %9s %8s\n",
		"procs", "mode", "path", "cache", "ns/write", "writes/sec", "speedup", "hit%")
	for _, row := range r.Rows {
		cache := "off"
		if row.Cache {
			cache = "on"
		}
		sp := ""
		if row.SpeedupVsB > 0 {
			sp = fmt.Sprintf("%7.2fx", row.SpeedupVsB)
		}
		hit := ""
		if row.Cache {
			hit = fmt.Sprintf("%7.1f%%", row.HitRate*100)
		}
		fmt.Fprintf(&b, "%6d %9s %7s %6s %12.0f %14.0f %9s %8s\n",
			row.Procs, row.Mode, row.Path, cache, row.NsPerOp, row.OpsPerSec, sp, hit)
	}
	fmt.Fprintf(&b, "\nheadline: sharded+vec+cache vs biglock+scalar+uncached at GOMAXPROCS=8: %.2fx (gate ≥%.2fx: %s)\n",
		r.Headline, r.GateMin, map[bool]string{true: "pass", false: "FAIL"}[r.Pass])
	b.WriteString("the cached path replaces two heap-label subset walks with one\n" +
		"epoch-guarded array probe per verdict; batching amortizes the fixed\n" +
		"syscall dispatch (entry lock, fd lookup, hook, verdict) across the\n" +
		"vector. Throughput counts logical writes: a vector element is one op.\n")
	return b.String()
}
