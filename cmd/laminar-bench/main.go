// Command laminar-bench regenerates every table and figure from the
// Laminar paper's evaluation (§6–§7) against this repository's
// implementation, plus the repository's own gated experiments, printing
// paper-style text tables.
//
// Usage:
//
//	laminar-bench -all                # everything, default scale
//	laminar-bench -table 1            # taxonomy probes (Table 1)
//	laminar-bench -table 2            # lmbench (Table 2)
//	laminar-bench -table 4            # GradeSheet label sets (Table 4)
//	laminar-bench -figure jvm         # DaCapo barrier overheads (-opt: with barrier elimination)
//	laminar-bench -figure regions     # overhead vs share of work inside security regions
//	laminar-bench -figure compile     # compilation-time experiment
//	laminar-bench -figure apps        # case-study overheads (Figure 9 + Table 3; also -table 3)
//	laminar-bench -flume              # monitor-vs-LSM IPC comparison, then the wiki
//	laminar-bench -ablations          # design-decision ablations
//	laminar-bench -concurrency        # big-lock vs sharded syscall storms
//	laminar-bench -barriers           # barrier reduction over the optimization corpus
//	laminar-bench -netd               # cross-kernel labeled throughput over localhost TCP
//	laminar-bench -cluster            # label-plane throughput, direct vs routed
//	laminar-bench -verdictcache       # sharded + batched writes vs the old protocol (gated)
//	laminar-bench -telemetry          # telemetry recording overhead (gated)
//	laminar-bench -budget             # flow-budget charging overhead (gated)
//	laminar-bench -trace              # flow-tracing overhead on the netd hot path (gated)
//	laminar-bench -scale 10           # heavier app workloads (closer to paper scale)
//
// The last eight experiments also write their result to BENCH_<name>.json
// (BENCH_concurrency.json, BENCH_barriers.json, …) in the -out directory,
// the current one by default. With -gate, the process exits 1 as soon as
// a selected gated experiment misses its gate. Trial counts and sizes
// must be positive: any other value exits 2 before an experiment runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"laminar/internal/eval"
)

// Sizes the command runs at; only the experiments' tests vary them.
const (
	iters      = 300                   // JVM workload loop iterations
	concTasks  = 8                     // concurrent tasks in the syscall storms
	concIO     = 30 * time.Microsecond // modeled device latency for the io storm
	vcTasks    = 8                     // writer tasks in the -verdictcache storm
	vcBatch    = 16                    // WriteVec vector length for its vec rows
	budgetMsgs = 4000                  // messages per -budget netd cell
)

// report is what every experiment returns: a printable table.
type report interface{ Format() string }

// experiment is one selectable benchmark: run it, print its table, and
// write its JSON to the -out directory when jsonFile names a file.
type experiment struct {
	on       bool
	run      func() (report, error)
	jsonFile string
}

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		table     = flag.Int("table", 0, "reproduce a numbered table (1, 2, 3, 4)")
		figure    = flag.String("figure", "", "reproduce a figure: jvm, apps, compile, regions")
		flume     = flag.Bool("flume", false, "monitor-vs-LSM IPC comparison")
		ablations = flag.Bool("ablations", false, "design-decision ablations")
		conc      = flag.Bool("concurrency", false, "big-lock vs sharded syscall-storm scaling")
		concOps   = flag.Int("concops", 12000, "syscalls per task in the -concurrency and -telemetry storms")
		barriers  = flag.Bool("barriers", false, "barrier-reduction table over the optimization corpus")
		netd      = flag.Bool("netd", false, "cross-kernel labeled throughput over localhost TCP (msgs/sec vs payload size, batching on/off)")
		netdMsgs  = flag.Int("netdmsgs", 4000, "messages per netd cell")
		clus      = flag.Bool("cluster", false, "cluster label-plane throughput (msgs/sec vs node count, routed vs direct)")
		clusMsgs  = flag.Int("clustermsgs", 2000, "messages per cluster cell")
		vcache    = flag.Bool("verdictcache", false, "sharded + batched-write hot path vs the old per-op protocol (gate: 1.5x)")
		vcWrites  = flag.Int("vcwrites", 16384, "logical writes per task in the -verdictcache write storm")
		telem     = flag.Bool("telemetry", false, "telemetry overhead: storms under baseline/off/deny/all recording (gate: off <= 1.02x)")
		budg      = flag.Bool("budget", false, "flow-budget charging overhead on the declassification hot paths + zipfian tenant-contention table (gate: 1.05x)")
		trace     = flag.Bool("trace", false, "flow-tracing overhead on the netd hot path (gates: off <= 1.02x, on <= 1.10x)")
		traceMsgs = flag.Int("tracemsgs", 4000, "messages per trace-bench cell")
		scale     = flag.Int("scale", 1, "workload scale factor (apps)")
		trials    = flag.Int("trials", 5, "trials per measurement (median/min)")
		optimize  = flag.Bool("opt", false, "enable redundant-barrier elimination in the jvm figure")
		gate      = flag.Bool("gate", false, "exit nonzero if a selected gated experiment misses its gate")
		out       = flag.String("out", ".", "directory the BENCH_*.json results are written to")
	)
	flag.Parse()

	for _, c := range []struct {
		name string
		v    int
	}{
		{"trials", *trials}, {"scale", *scale}, {"concops", *concOps}, {"netdmsgs", *netdMsgs},
		{"clustermsgs", *clusMsgs}, {"vcwrites", *vcWrites}, {"tracemsgs", *traceMsgs},
	} {
		if c.v < 1 {
			fmt.Fprintf(os.Stderr, "laminar-bench: -%s %d: must be at least 1\n", c.name, c.v)
			os.Exit(2)
		}
	}

	experiments := []experiment{
		{on: *all || *table == 1, run: func() (report, error) { return eval.Table1() }},
		{on: *all || *table == 2, run: func() (report, error) { return eval.Table2(2000, *trials) }},
		{on: *all || *table == 4, run: func() (report, error) { return eval.Table4(16, 8), nil }},
		{on: *all || *figure == "jvm", run: func() (report, error) { return eval.JVMOverhead(iters, *trials, *optimize) }},
		{on: *all || *figure == "regions", run: func() (report, error) { return eval.RegionDensity(iters, *trials) }},
		{on: *all || *figure == "compile", run: func() (report, error) { return eval.CompileTime(*trials) }},
		{on: *all || *figure == "apps" || *table == 3, run: func() (report, error) { return eval.Apps(*scale) }},
		{on: *all || *flume, run: func() (report, error) {
			// Two tables: the IPC comparison prints before the wiki runs.
			rep, err := eval.FlumeCompare(20000)
			if err != nil {
				return nil, err
			}
			fmt.Println(rep.Format())
			return eval.WikiCompare(3000)
		}},
		{on: *all || *ablations, run: func() (report, error) { return eval.Ablations(2000, 50) }},
		{on: *all || *conc, jsonFile: "BENCH_concurrency.json",
			run: func() (report, error) { return eval.Concurrency(concTasks, *concOps, *trials, concIO) }},
		{on: *all || *barriers, jsonFile: "BENCH_barriers.json",
			run: func() (report, error) { return eval.Barriers() }},
		{on: *all || *netd, jsonFile: "BENCH_netd.json",
			run: func() (report, error) { return eval.Netd(*netdMsgs, *trials) }},
		{on: *all || *clus, jsonFile: "BENCH_cluster.json",
			run: func() (report, error) { return eval.Cluster(*clusMsgs, *trials) }},
		{on: *all || *vcache, jsonFile: "BENCH_verdictcache.json",
			run: func() (report, error) { return eval.VerdictCache(vcTasks, *vcWrites, vcBatch, *trials) }},
		{on: *all || *telem, jsonFile: "BENCH_telemetry.json",
			run: func() (report, error) { return eval.Telemetry(concTasks, *concOps, *trials, concIO) }},
		{on: *all || *budg, jsonFile: "BENCH_budget.json",
			run: func() (report, error) { return eval.Budget(budgetMsgs, *trials) }},
		{on: *all || *trace, jsonFile: "BENCH_trace.json",
			run: func() (report, error) { return eval.Trace(*traceMsgs, *trials) }},
	}

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "laminar-bench:", err)
		os.Exit(1)
	}
	for _, e := range experiments {
		if !e.on {
			continue
		}
		ran = true
		rep, err := e.run()
		if err != nil {
			fail(err)
		}
		fmt.Println(rep.Format())
		if e.jsonFile != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fail(err)
			}
			path := filepath.Join(*out, e.jsonFile)
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if g, ok := rep.(interface{ Gate() string }); ok && *gate {
			if msg := g.Gate(); msg != "" {
				fail(errors.New(msg))
			}
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
