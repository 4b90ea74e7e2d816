// Command perfbench is this repository's benchmark. It drives one of three
// seeded, closed-loop workloads through the public APIs of the labeled
// stack, checks every answer against a shadow model, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload gradesheet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: the throughput
// sustained in 9 half-second windows out of 10, the median latency met in 9
// windows out of 10, set-up time and live heap. With --trace 1 the measured
// phase alternates untraced and traced windows and the metrics are the
// per-layer ones. provenance.json records why each workload exists and
// what is deliberately left unmeasured; every run copies it into its run
// record.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

//go:embed provenance.json
var provenance []byte

// gcPercent replaces Go's default GOGC of 100. The workloads' live heaps
// are 0.5 to 10 MB, so the default collects every 4 MB allocated: up to
// 80 times a second in file-churn and net-relay, where the GC's worker
// competes for the host's second CPU and moved file-churn's throughput by
// 30 % from run to run. At 1000 the heap may grow to about 40 MB between
// collections, as it would in a server with a larger heap; go.gc_per_kop
// and go.alloc_bytes_per_op still count the garbage.
const gcPercent = 1000

func main() {
	cfg := config{corruptAt: -1}
	flag.StringVar(&cfg.workload, "workload", "", "gradesheet, file-churn or net-relay")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	out := flag.String("out", "", "directory for the run record and span file; empty writes neither")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	debug.SetGCPercent(gcPercent)

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	if *out != "" {
		if err := record(*out, cfg, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(o.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// host identifies where, and on which code, a run happened.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GCPercent  int    `json:"gc_percent"`
}

// record writes the run record, and with tracing the span file, to dir.
func record(dir string, cfg config, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Workload   string          `json:"workload"`
		Seed       int64           `json:"seed"`
		Seconds    float64         `json:"seconds"`
		Trace      bool            `json:"trace"`
		Host       host            `json:"host"`
		Sizes      map[string]int  `json:"sizes"`
		SetupRunsS []float64       `json:"setup_runs_s"`
		Warmup     int             `json:"warmup_requests"`
		Load       hostLoad        `json:"host_load"`
		Windows    []windowRecord  `json:"windows"`
		Digest     string          `json:"request_digest"`
		Problems   []string        `json:"problems"`
		Result     result          `json:"result"`
		Provenance json.RawMessage `json:"provenance"`
	}{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: gitCommit("."), Source: sourceDigest("."), GCPercent: gcPercent,
		},
		Sizes: specs[cfg.workload].sizes, SetupRunsS: o.setupS, Warmup: o.warmup, Load: o.load,
		Windows: windowRecords(o.wins),
		Digest:  fmt.Sprintf("%016x", o.trail), Problems: o.problems, Result: o.res,
		Provenance: provenance,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("run-%s-trace%d.json", cfg.workload, trace)
	if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.trace {
		return o.tr.writeSpans(filepath.Join(dir, "spans-"+cfg.workload+".jsonl"))
	}
	return nil
}

// gitCommit resolves HEAD when root is a git checkout, else "unknown".
// The benchmark usually runs in an exported tree, where sourceDigest
// identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root,
// skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// windowRecord is one measured window as the run record keeps it.
type windowRecord struct {
	Traced     bool    `json:"traced"`
	Ops        int     `json:"ops"`
	Throughput float64 `json:"throughput_ops_s"`
	P50        float64 `json:"latency_p50_us"`
	P99        float64 `json:"latency_p99_us"`
	GCs        uint64  `json:"gcs"`
	CPUShare   float64 `json:"client_cpu_share"`
	ProcShare  float64 `json:"process_cpu_share"`
}

func windowRecords(wins []window) []windowRecord {
	recs := make([]windowRecord, len(wins))
	for i, w := range wins {
		recs[i] = windowRecord{w.traced, w.ops, w.throughput(), w.p50, w.p99, w.delta[cGCs],
			w.cpuShare(), ratio(float64(w.procCPUNs), float64(w.ns))}
	}
	return recs
}
