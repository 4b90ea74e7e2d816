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
//	laminar-bench -barriers           # barrier reduction over the optimization corpus
//	laminar-bench -netd               # cross-kernel labeled throughput over localhost TCP
//	laminar-bench -cluster            # label-plane throughput, direct vs routed
//	laminar-bench -storm              # syscall storms: lock mode, batched writes, telemetry (gated)
//	laminar-bench -budget             # flow-budget charging overhead (gated)
//	laminar-bench -trace              # flow-tracing overhead on the netd hot path (gated)
//	laminar-bench -scale 10           # heavier app and JVM workloads (closer to paper scale)
//
// The last six experiments also write their result to BENCH_<name>.json
// (BENCH_barriers.json, BENCH_storm.json, …) in the -out directory,
// the current one by default. With -gate, the process exits 1 as soon as
// a selected gated experiment misses its gate. Trial counts and sizes
// must be positive, and -concops at least 12, one mixed-storm iteration:
// any other value exits 2 before an experiment runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"laminar/internal/eval"
)

// Sizes the command runs at; only the experiments' tests vary them.
const (
	iters      = 300  // JVM workload loop iterations at -scale 1
	stormTasks = 8    // concurrent tasks in the -storm storms
	budgetMsgs = 4000 // messages per -budget netd cell
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
		storm     = flag.Bool("storm", false, "syscall storms under lock mode, write batching and telemetry recording (gates: hot path >= 1.5x, io off <= 1.02x)")
		concOps   = flag.Int("concops", 12000, "syscalls per task in the -storm mixed rows")
		barriers  = flag.Bool("barriers", false, "barrier-reduction table over the optimization corpus")
		netd      = flag.Bool("netd", false, "cross-kernel labeled throughput over localhost TCP (msgs/sec vs payload size, batching on/off)")
		netdMsgs  = flag.Int("netdmsgs", 4000, "messages per netd cell")
		clus      = flag.Bool("cluster", false, "cluster label-plane throughput (msgs/sec vs node count, routed vs direct)")
		clusMsgs  = flag.Int("clustermsgs", 2000, "messages per cluster cell")
		vcWrites  = flag.Int("vcwrites", 16384, "logical writes per task in the -storm write and writevec rows")
		budg      = flag.Bool("budget", false, "flow-budget charging overhead on the declassification hot paths + zipfian tenant-contention table (gate: 1.05x)")
		trace     = flag.Bool("trace", false, "flow-tracing overhead on the netd hot path (gates: off <= 1.02x, on <= 1.10x)")
		traceMsgs = flag.Int("tracemsgs", 4000, "messages per trace-bench cell")
		scale     = flag.Int("scale", 1, "workload scale factor (apps; multiplies the jvm and regions loop iterations)")
		trials    = flag.Int("trials", 5, "trials per measurement (median/min)")
		optimize  = flag.Bool("opt", false, "enable redundant-barrier elimination in the jvm figure")
		gate      = flag.Bool("gate", false, "exit nonzero if a selected gated experiment misses its gate")
		out       = flag.String("out", ".", "directory the BENCH_*.json results are written to")
	)
	flag.Parse()

	for _, c := range []struct {
		name   string
		v, min int
	}{
		{"trials", *trials, 1}, {"scale", *scale, 1}, {"concops", *concOps, eval.MixedIterSyscalls},
		{"netdmsgs", *netdMsgs, 1}, {"clustermsgs", *clusMsgs, 1}, {"vcwrites", *vcWrites, 1},
		{"tracemsgs", *traceMsgs, 1},
	} {
		if c.v < c.min {
			fmt.Fprintf(os.Stderr, "laminar-bench: -%s %d: must be at least %d\n", c.name, c.v, c.min)
			os.Exit(2)
		}
	}

	experiments := []experiment{
		{on: *all || *table == 1, run: func() (report, error) { return eval.Table1() }},
		{on: *all || *table == 2, run: func() (report, error) { return eval.Table2(2000, *trials) }},
		{on: *all || *table == 4, run: func() (report, error) { return eval.Table4(16, 8), nil }},
		{on: *all || *figure == "jvm", run: func() (report, error) { return eval.JVMOverhead(*scale*iters, *trials, *optimize) }},
		{on: *all || *figure == "regions", run: func() (report, error) { return eval.RegionDensity(*scale*iters, *trials) }},
		{on: *all || *figure == "compile", run: func() (report, error) { return eval.CompileTime(*trials) }},
		{on: *all || *figure == "apps" || *table == 3, run: func() (report, error) { return eval.Apps(*scale, *trials) }},
		{on: *all || *flume, run: func() (report, error) {
			// Two tables: the IPC comparison prints before the wiki runs.
			rep, err := eval.FlumeCompare(20000)
			if err != nil {
				return nil, err
			}
			fmt.Println(rep.Format())
			return eval.WikiCompare(3000)
		}},
		{on: *all || *ablations, run: func() (report, error) { return eval.Ablations(2000, 50, *trials) }},
		{on: *all || *barriers, jsonFile: "BENCH_barriers.json",
			run: func() (report, error) { return eval.Barriers() }},
		{on: *all || *netd, jsonFile: "BENCH_netd.json",
			run: func() (report, error) { return eval.Netd(*netdMsgs, *trials) }},
		{on: *all || *clus, jsonFile: "BENCH_cluster.json",
			run: func() (report, error) { return eval.Cluster(*clusMsgs, *trials) }},
		{on: *all || *storm, jsonFile: "BENCH_storm.json",
			run: func() (report, error) { return eval.Storm(stormTasks, *concOps, *vcWrites, *trials) }},
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
