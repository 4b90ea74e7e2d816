// Command laminar-bench regenerates every table and figure from the
// Laminar paper's evaluation (§6–§7) against this repository's
// implementation, printing paper-style text tables.
//
// Usage:
//
//	laminar-bench -all                # everything, default scale
//	laminar-bench -table 2            # lmbench (Table 2)
//	laminar-bench -figure jvm         # DaCapo barrier overheads
//	laminar-bench -figure apps        # case-study overheads (Figure 9 + Table 3)
//	laminar-bench -figure compile     # compilation-time experiment
//	laminar-bench -table 1|4          # taxonomy probes / GradeSheet sets
//	laminar-bench -flume              # monitor-vs-LSM IPC comparison
//	laminar-bench -ablations          # design-decision ablations
//	laminar-bench -concurrency        # big-lock vs sharded syscall storms
//	laminar-bench -scale 10           # heavier workloads (closer to paper scale)
//
// -concurrency additionally writes the machine-readable result to
// BENCH_concurrency.json (override with -concjson).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"laminar/internal/eval"
)

// report is what every experiment returns: a printable table. The
// experiments with a machine-readable result also implement JSON.
type report interface{ Format() string }

// experiment is one selectable benchmark: run it, print its table,
// write its JSON when jsonPath is set, and fail the process when gate
// reports a missed gate.
type experiment struct {
	on       bool
	run      func() (report, error)
	jsonPath string
	gate     func(report) string // "" when the gate passes or is off
}

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		table     = flag.Int("table", 0, "reproduce a numbered table (1, 2, 4)")
		figure    = flag.String("figure", "", "reproduce a figure: jvm, apps, compile, regions")
		flume     = flag.Bool("flume", false, "monitor-vs-LSM IPC comparison")
		ablations = flag.Bool("ablations", false, "design-decision ablations")
		conc      = flag.Bool("concurrency", false, "big-lock vs sharded syscall-storm scaling")
		concTasks = flag.Int("conctasks", 8, "concurrent tasks in the syscall storms")
		concOps   = flag.Int("concops", 12000, "syscalls per task in the storms")
		concIO    = flag.Duration("concio", 30*time.Microsecond, "modeled device latency for the io storm")
		concJSON  = flag.String("concjson", "BENCH_concurrency.json", "where -concurrency writes its JSON result")
		barriers  = flag.Bool("barriers", false, "barrier-reduction table over the optimization corpus")
		barrJSON  = flag.String("barriersjson", "BENCH_barriers.json", "where -barriers writes its JSON result")
		netd      = flag.Bool("netd", false, "cross-kernel labeled throughput over localhost TCP (msgs/sec vs payload size, batching on/off)")
		netdMsgs  = flag.Int("netdmsgs", 4000, "messages per netd cell")
		netdJSON  = flag.String("netdjson", "BENCH_netd.json", "where -netd writes its JSON result")
		clus      = flag.Bool("cluster", false, "cluster label-plane throughput (msgs/sec vs node count, routed vs direct)")
		clusMsgs  = flag.Int("clustermsgs", 2000, "messages per cluster cell")
		clusJSON  = flag.String("clusterjson", "BENCH_cluster.json", "where -cluster writes its JSON result")
		vcache    = flag.Bool("verdictcache", false, "verdict-cache + batched-write hot path vs the old per-op protocol")
		vcTasks   = flag.Int("vctasks", 8, "concurrent writer tasks in the verdict-cache storm")
		vcWrites  = flag.Int("vcwrites", 16384, "logical writes per task in the verdict-cache storm")
		vcBatch   = flag.Int("vcbatch", 16, "WriteVec vector length for the vec rows")
		vcJSON    = flag.String("vcjson", "BENCH_verdictcache.json", "where -verdictcache writes its JSON result")
		vcGate    = flag.Bool("vcgate", false, "with -verdictcache: exit nonzero if the new-protocol speedup misses the 1.5x gate")
		telem     = flag.Bool("telemetry", false, "telemetry overhead: storms under baseline/off/deny/all recording")
		telJSON   = flag.String("teljson", "BENCH_telemetry.json", "where -telemetry writes its JSON result")
		telGate   = flag.Bool("telgate", false, "with -telemetry: exit nonzero if disabled-path overhead exceeds the 2% gate")
		budg      = flag.Bool("budget", false, "flow-budget charging overhead on the labeled netd hot path + zipfian tenant-contention table")
		budgMsgs  = flag.Int("budgetmsgs", 4000, "messages per budget-bench cell")
		budgJSON  = flag.String("budgetjson", "BENCH_budget.json", "where -budget writes its JSON result")
		budgGate  = flag.Bool("budgetgate", false, "with -budget: exit nonzero if unexhausted-charge overhead exceeds the 1.05x gate")
		trace     = flag.Bool("trace", false, "flow-tracing overhead on the netd hot path (bare/off/on)")
		traceMsgs = flag.Int("tracemsgs", 4000, "messages per trace-bench cell")
		traceJSON = flag.String("tracejson", "BENCH_trace.json", "where -trace writes its JSON result")
		traceGate = flag.Bool("tracegate", false, "with -trace: exit nonzero if tracing overhead misses the 1.02x/1.10x gates")
		scale     = flag.Int("scale", 1, "workload scale factor (apps)")
		iters     = flag.Int("iters", 300, "JVM workload loop iterations")
		trials    = flag.Int("trials", 5, "trials per measurement (median/min)")
		optimize  = flag.Bool("opt", false, "enable redundant-barrier elimination in the jvm figure")
	)
	flag.Parse()

	experiments := []experiment{
		{on: *all || *table == 1, run: func() (report, error) { return eval.Table1() }},
		{on: *all || *table == 2, run: func() (report, error) { return eval.Table2(2000, *trials) }},
		{on: *all || *table == 4, run: func() (report, error) { return eval.Table4(16, 8), nil }},
		{on: *all || *figure == "jvm", run: func() (report, error) { return eval.JVMOverhead(*iters, *trials, *optimize) }},
		{on: *all || *figure == "regions", run: func() (report, error) { return eval.RegionDensity(*iters, *trials) }},
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
		{on: *all || *conc, jsonPath: *concJSON,
			run: func() (report, error) { return eval.Concurrency(*concTasks, *concOps, *trials, *concIO) }},
		{on: *all || *barriers, jsonPath: *barrJSON,
			run: func() (report, error) { return eval.Barriers() }},
		{on: *all || *netd, jsonPath: *netdJSON,
			run: func() (report, error) { return eval.Netd(*netdMsgs, *trials) }},
		{on: *all || *clus, jsonPath: *clusJSON,
			run: func() (report, error) { return eval.Cluster(*clusMsgs, *trials) }},
		{on: *all || *vcache, jsonPath: *vcJSON,
			run: func() (report, error) { return eval.VerdictCache(*vcTasks, *vcWrites, *vcBatch, *trials) },
			gate: func(r report) string {
				rep := r.(*eval.VerdictCacheReport)
				if !*vcGate || rep.Pass {
					return ""
				}
				return fmt.Sprintf("verdict-cache headline speedup %.2fx misses the %.2fx gate",
					rep.Headline, rep.GateMin)
			}},
		{on: *all || *telem, jsonPath: *telJSON,
			run: func() (report, error) { return eval.Telemetry(*concTasks, *concOps, *trials, *concIO) },
			gate: func(r report) string {
				rep := r.(*eval.TelemetryReport)
				if !*telGate || rep.Pass {
					return ""
				}
				return fmt.Sprintf("telemetry disabled-path overhead %.3fx exceeds %.2fx gate",
					rep.HeadlineOff, rep.GateMax)
			}},
		{on: *all || *budg, jsonPath: *budgJSON,
			run: func() (report, error) { return eval.Budget(*budgMsgs, *trials) },
			gate: func(r report) string {
				rep := r.(*eval.BudgetReport)
				if !*budgGate || rep.Pass {
					return ""
				}
				return fmt.Sprintf("unexhausted budget-charge overhead %.3fx exceeds %.2fx gate",
					rep.Overhead, rep.Gate)
			}},
		{on: *all || *trace, jsonPath: *traceJSON,
			run: func() (report, error) { return eval.Trace(*traceMsgs, *trials) },
			gate: func(r report) string {
				rep := r.(*eval.TraceReport)
				if !*traceGate || rep.Pass {
					return ""
				}
				return fmt.Sprintf("trace overhead off=%.3fx (gate %.2fx) on=%.3fx (gate %.2fx)",
					rep.OverheadOff, rep.GateOff, rep.OverheadOn, rep.GateOn)
			}},
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
		if e.jsonPath != "" {
			data, err := rep.(interface{ JSON() ([]byte, error) }).JSON()
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(e.jsonPath, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", e.jsonPath)
		}
		if e.gate != nil {
			if msg := e.gate(rep); msg != "" {
				fmt.Fprintln(os.Stderr, "laminar-bench:", msg)
				os.Exit(1)
			}
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
