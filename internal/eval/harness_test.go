package eval

// Tier-1 tests for the JSON-emitting experiments: each runs at a tiny
// scale and is checked for shape only — row count, order and labels,
// finite positive rates, the gate thresholds the report records, and
// that Gate agrees with Pass. Timing bands are deliberately absent: a
// loaded host makes them flaky, and the gated numbers themselves are
// checked at full scale by laminar-bench -gate.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"laminar/internal/jvm/corpus"
)

// tinyReports memoizes each tiny run so the shape tests and the schema
// pin share one measurement per experiment.
var tinyReports = map[string]any{}

func tiny[R any](t *testing.T, name string, run func() (R, error)) R {
	t.Helper()
	if rep, ok := tinyReports[name]; ok {
		return rep.(R)
	}
	rep, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tinyReports[name] = rep
	return rep
}

func tinyNetd(t *testing.T) *NetdReport {
	return tiny(t, "netd", func() (*NetdReport, error) { return Netd(50, 1) })
}

func tinyCluster(t *testing.T) *ClusterReport {
	return tiny(t, "cluster", func() (*ClusterReport, error) { return Cluster(50, 1) })
}

func tinyTrace(t *testing.T) *TraceReport {
	return tiny(t, "trace", func() (*TraceReport, error) { return Trace(100, 1) })
}

func tinyBudget(t *testing.T) *BudgetReport {
	return tiny(t, "budget", func() (*BudgetReport, error) { return Budget(100, 1) })
}

func tinyVerdictCache(t *testing.T) *VerdictCacheReport {
	return tiny(t, "verdictcache", func() (*VerdictCacheReport, error) { return VerdictCache(2, 64, 16, 1) })
}

func tinyTelemetry(t *testing.T) *TelemetryReport {
	return tiny(t, "telemetry", func() (*TelemetryReport, error) { return Telemetry(2, 240, 1, 30*time.Microsecond) })
}

func tinyConcurrency(t *testing.T) *ConcurrencyReport {
	return tiny(t, "concurrency", func() (*ConcurrencyReport, error) { return Concurrency(2, 120, 1, 30*time.Microsecond) })
}

func tinyBarriers(t *testing.T) *BarrierReport {
	return tiny(t, "barriers", Barriers)
}

// positive fails the test unless every named rate is finite and > 0.
func positive(t *testing.T, what string, rates ...float64) {
	t.Helper()
	for i, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Errorf("%s[%d] = %v, want finite and > 0", what, i, r)
		}
	}
}

// gated is a report with a pass/fail gate.
type gated interface{ Gate() string }

// checkGate drives g's gate both ways by flipping its Pass field: Gate
// must return "" exactly when Pass is true.
func checkGate(t *testing.T, g gated, pass *bool) {
	t.Helper()
	if (g.Gate() == "") != *pass {
		t.Errorf("Gate() = %q with Pass = %v", g.Gate(), *pass)
	}
	saved := *pass
	defer func() { *pass = saved }()
	*pass = false
	if g.Gate() == "" {
		t.Error("Gate() = \"\" on a failing report")
	}
	*pass = true
	if msg := g.Gate(); msg != "" {
		t.Errorf("Gate() = %q on a passing report", msg)
	}
}

func TestNetdShape(t *testing.T) {
	rep := tinyNetd(t)
	if rep.Msgs != 50 || rep.Trials != 1 {
		t.Errorf("messages/trials = %d/%d, want 50/1", rep.Msgs, rep.Trials)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 payloads × batching off/on)", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		wantBatch, wantPayload := i >= 3, netdPayloads[i%3]
		if row.Batching != wantBatch || row.PayloadBytes != wantPayload {
			t.Errorf("row %d = (%d, %v), want (%d, %v)", i, row.PayloadBytes, row.Batching, wantPayload, wantBatch)
		}
		positive(t, "netd rates", row.MsgsPerSec, row.MBPerSec, float64(row.WallNs))
		if row.Batching {
			positive(t, "netd batch speedup", row.BatchSpeedup)
		} else if row.BatchSpeedup != 0 {
			t.Errorf("unbatched row %d carries a speedup %v", i, row.BatchSpeedup)
		}
	}
	if !strings.Contains(rep.Format(), "speedup") {
		t.Error("Format missing speedup column")
	}
}

func TestClusterShape(t *testing.T) {
	rep := tinyCluster(t)
	want := []struct {
		nodes  int
		routed bool
	}{{2, false}, {3, false}, {4, false}, {3, true}, {4, true}}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	for i, row := range rep.Rows {
		if row.Nodes != want[i].nodes || row.Routed != want[i].routed {
			t.Errorf("row %d = (%d, %v), want (%d, %v)", i, row.Nodes, row.Routed, want[i].nodes, want[i].routed)
		}
		positive(t, "cluster rates", row.MsgsPerSec, row.MBPerSec)
		if row.Routed {
			positive(t, "cluster route overhead", row.RouteOverhead)
		}
	}
	if rep.Payload != clusterPayload {
		t.Errorf("payload = %d, want %d", rep.Payload, clusterPayload)
	}
	if !strings.Contains(rep.Format(), "hop overhead") {
		t.Error("Format missing hop-overhead column")
	}
}

func TestTraceShape(t *testing.T) {
	rep := tinyTrace(t)
	var modes []string
	for _, row := range rep.Rows {
		modes = append(modes, row.Mode)
		positive(t, "trace "+row.Mode, row.MsgsPerSec)
	}
	if !reflect.DeepEqual(modes, []string{"bare", "off", "on", "deny"}) {
		t.Errorf("modes = %v", modes)
	}
	if rep.GateOff != 1.02 || rep.GateOn != 1.10 {
		t.Errorf("gates = %v/%v, want 1.02/1.10", rep.GateOff, rep.GateOn)
	}
	positive(t, "trace overheads", rep.OverheadOff, rep.OverheadOn)
	checkGate(t, rep, &rep.Pass)
}

func TestBudgetShape(t *testing.T) {
	rep := tinyBudget(t)
	for _, rows := range [][]BudgetRow{rep.RelabelRows, rep.NetdRows} {
		if len(rows) != 2 || rows[0].Mode != "bare" || rows[1].Mode != "budgeted" {
			t.Fatalf("rows = %+v, want bare then budgeted", rows)
		}
		positive(t, "budget rates", rows[0].OpsPerSec, rows[1].OpsPerSec)
	}
	if rep.GateMax != 1.05 {
		t.Errorf("gate = %v, want 1.05", rep.GateMax)
	}
	positive(t, "budget overheads", rep.Overhead, rep.NetdOverhead)
	if len(rep.Contention) != rep.Tenants {
		t.Fatalf("contention rows = %d, want %d", len(rep.Contention), rep.Tenants)
	}
	total := 0
	for i, row := range rep.Contention {
		if row.Tenant != i+1 || row.Charged+row.Denied != row.Requests {
			t.Errorf("tenant row %d = %+v", i, row)
		}
		total += row.Requests
	}
	if total != rep.TenantReqs {
		t.Errorf("tenant requests sum to %d, want %d", total, rep.TenantReqs)
	}
	checkGate(t, rep, &rep.Pass)
}

func TestVerdictCacheShape(t *testing.T) {
	rep := tinyVerdictCache(t)
	want := []string{"1/biglock/scalar", "1/sharded/scalar", "1/sharded/vec",
		"8/biglock/scalar", "8/sharded/scalar", "8/sharded/vec"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	for i, row := range rep.Rows {
		if got := fmt.Sprintf("%d/%s/%s", row.Procs, row.Mode, row.Path); got != want[i] {
			t.Errorf("row %d = %s, want %s", i, got, want[i])
		}
		if row.Ops != 2*64 {
			t.Errorf("row %d ops = %d, want 128", i, row.Ops)
		}
		positive(t, "verdictcache rates", row.OpsPerSec, row.NsPerOp)
		if row.Mode == "sharded" {
			positive(t, "verdictcache speedup", row.SpeedupVsB)
		}
	}
	if rep.GateMin != 1.5 {
		t.Errorf("gate = %v, want 1.5", rep.GateMin)
	}
	positive(t, "verdictcache headline", rep.Headline)
	checkGate(t, rep, &rep.Pass)
}

func TestTelemetryShape(t *testing.T) {
	rep := tinyTelemetry(t)
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 storms × 4 configs)", len(rep.Rows))
	}
	configs := []string{"baseline", "off", "deny", "all"}
	for i, row := range rep.Rows {
		wantWL := "cpu"
		if i >= 4 {
			wantWL = "io"
		}
		if row.Workload != wantWL || row.Config != configs[i%4] {
			t.Errorf("row %d = %s/%s, want %s/%s", i, row.Workload, row.Config, wantWL, configs[i%4])
		}
		positive(t, "telemetry rates", row.OpsPerSec, row.NsPerOp, row.Overhead)
	}
	if rep.GateMax != TelemetryGateMax || rep.Procs != 8 {
		t.Errorf("gate/procs = %v/%d, want %v/8", rep.GateMax, rep.Procs, TelemetryGateMax)
	}
	positive(t, "telemetry headline", rep.HeadlineOff)
	checkGate(t, rep, &rep.Pass)
}

func TestBarriersShape(t *testing.T) {
	rep := tinyBarriers(t)
	all := corpus.Programs()
	names := corpus.Names(all)
	if len(rep.Rows) != len(names) {
		t.Fatalf("rows = %d, want one per corpus program (%d)", len(rep.Rows), len(names))
	}
	for i, row := range rep.Rows {
		if want := strings.TrimSuffix(names[i], ".mjvm"); row.Program != want {
			t.Errorf("row %d = %s, want %s", i, row.Program, want)
		}
		if row.EmittedIntra > row.EmittedBase || row.ChecksIntra > row.ChecksBase || row.ChecksInter > row.ChecksBase {
			t.Errorf("%s: elimination added barriers: %+v", row.Program, row)
		}
	}
	if !strings.Contains(rep.Format(), "total") {
		t.Error("Format missing total row")
	}
}

// jsonKeys collects every key path in v: ".rows[].mode" names the mode
// key of any element of the top-level rows array, so the set is the
// union of keys across rows (omitempty fields appear on some rows only).
func jsonKeys(v any, path string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			into[path+"."+k] = true
			jsonKeys(e, path+"."+k, into)
		}
	case []any:
		for _, e := range v {
			jsonKeys(e, path+"[]", into)
		}
	}
}

func keySet(t *testing.T, data []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	jsonKeys(v, "", set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchSchemaPinned marshals each tiny report the way laminar-bench
// writes it and requires the same key set as the checked-in BENCH file,
// so a renamed or dropped field fails tier-1.
func TestBenchSchemaPinned(t *testing.T) {
	for file, rep := range map[string]any{
		"BENCH_netd.json":         tinyNetd(t),
		"BENCH_cluster.json":      tinyCluster(t),
		"BENCH_trace.json":        tinyTrace(t),
		"BENCH_budget.json":       tinyBudget(t),
		"BENCH_verdictcache.json": tinyVerdictCache(t),
		"BENCH_telemetry.json":    tinyTelemetry(t),
		"BENCH_concurrency.json":  tinyConcurrency(t),
		"BENCH_barriers.json":     tinyBarriers(t),
	} {
		checked, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if g, w := keySet(t, got), keySet(t, checked); !reflect.DeepEqual(g, w) {
			t.Errorf("%s key set drifted\n got: %v\nwant: %v", file, g, w)
		}
	}
}

// TestZeroTrialsFail: a best-of over no trials has no value, so every
// best-of entry point refuses trials < 1 instead of reporting +Inf rates
// (and a gate verdict computed from them).
func TestZeroTrialsFail(t *testing.T) {
	for name, run := range map[string]func() (any, error){
		"netd":         func() (any, error) { return Netd(10, 0) },
		"cluster":      func() (any, error) { return Cluster(10, 0) },
		"trace":        func() (any, error) { return Trace(10, 0) },
		"budget":       func() (any, error) { return Budget(10, 0) },
		"verdictcache": func() (any, error) { return VerdictCache(2, 16, 16, 0) },
		"telemetry":    func() (any, error) { return Telemetry(2, 24, 0, time.Microsecond) },
		"concurrency":  func() (any, error) { return Concurrency(2, 24, 0, time.Microsecond) },
		"compile":      func() (any, error) { return CompileTime(0) },
	} {
		rep, err := run()
		if err == nil {
			t.Errorf("%s with 0 trials: no error, report %+v", name, rep)
		}
	}
}
