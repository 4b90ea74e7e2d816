package eval

// Tier-1 tests for the JSON-emitting experiments: each runs at a tiny
// scale and is checked for shape — row count, order and labels, finite
// positive rates, the gate thresholds the report records, and that Gate
// agrees with Pass. Timing bands are deliberately absent: a loaded host
// makes them flaky, and the gated numbers themselves are checked at full
// scale by laminar-bench -gate. The barrier table holds deterministic
// counts only, so it is also pinned to the checked-in values.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

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

func tinyStorm(t *testing.T) *StormReport {
	return tiny(t, "storm", func() (*StormReport, error) { return Storm(2, 120, 64, 1) })
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

func TestStormShape(t *testing.T) {
	rep := tinyStorm(t)
	var want []string
	for _, io := range []int{0, 30} {
		for _, p := range []int{1, 4} {
			want = append(want, fmt.Sprintf("mixed/io%dus/p%d/biglock/off", io, p), fmt.Sprintf("mixed/io%dus/p%d/sharded/off", io, p))
		}
		for _, cell := range []string{"biglock/off", "sharded/off", "sharded/none", "sharded/deny", "sharded/all"} {
			want = append(want, fmt.Sprintf("mixed/io%dus/p8/%s", io, cell))
		}
	}
	for _, p := range []int{1, 8} {
		for _, cell := range []string{"write/io0us/p%d/biglock/off", "write/io0us/p%d/sharded/off", "writevec/io0us/p%d/sharded/off"} {
			want = append(want, fmt.Sprintf(cell, p))
		}
	}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	byKey := map[string]StormRow{}
	for i, row := range rep.Rows {
		if got := row.key(); got != want[i] {
			t.Errorf("row %d = %s, want %s", i, got, want[i])
		}
		byKey[row.key()] = row
		wantOps := 2 * 120
		if row.Workload != "mixed" {
			wantOps = 2 * 64
		}
		if row.Ops != wantOps {
			t.Errorf("%s ops = %d, want %d", row.key(), row.Ops, wantOps)
		}
		positive(t, row.key()+" rates", row.OpsPerSec, row.NsPerOp, row.Speedup)
	}
	// Each reference is a row at the same I/O latency and GOMAXPROCS that
	// is its own reference.
	for _, row := range rep.Rows {
		ref, ok := byKey[row.Ref]
		switch {
		case !ok:
			t.Errorf("%s: reference %s is not a row", row.key(), row.Ref)
		case ref.Ref != ref.key():
			t.Errorf("%s: reference %s is not itself a reference", row.key(), row.Ref)
		case ref.IOus != row.IOus || ref.Procs != row.Procs:
			t.Errorf("%s: reference %s differs in I/O latency or GOMAXPROCS", row.key(), row.Ref)
		case row.Ref == row.key() && row.Speedup != 1:
			t.Errorf("%s: speedup over itself = %v", row.key(), row.Speedup)
		}
	}
	if rep.Tasks != 2 || rep.Batch != 16 {
		t.Errorf("tasks/batch = %d/%d, want 2/16", rep.Tasks, rep.Batch)
	}
	positive(t, "storm headlines", rep.HeadlineIO, rep.HeadlineHotPath, rep.HeadlineIOOff)
	if want := byKey["mixed/io30us/p8/sharded/off"].Speedup; rep.HeadlineIO != want {
		t.Errorf("io headline = %v, want the io30us p8 sharded speedup %v", rep.HeadlineIO, want)
	}
	if (rep.Gate() == "") != (rep.HotPathPass && rep.TelemetryPass) {
		t.Errorf("Gate() = %q with passes %v/%v", rep.Gate(), rep.HotPathPass, rep.TelemetryPass)
	}
	for _, want := range []string{"headline", "hot path", "overhead", "writevec"} {
		if !strings.Contains(rep.Format(), want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

// stormGate drives one of the storm report's two gates both ways while
// the other one passes.
func stormGate(t *testing.T, rep *StormReport, pass *bool) {
	t.Helper()
	hot, tel := rep.HotPathPass, rep.TelemetryPass
	defer func() { rep.HotPathPass, rep.TelemetryPass = hot, tel }()
	rep.HotPathPass, rep.TelemetryPass = true, true
	checkGate(t, rep, pass)
}

// TestVerdictCacheShape checks the storm's hot-path cells, the ones the
// retired -verdictcache experiment measured: scalar and vector 7-tag
// writes at GOMAXPROCS 1 and 8, each against biglock scalar writes, and
// the hot-path gate read from the vector row at GOMAXPROCS 8.
func TestVerdictCacheShape(t *testing.T) {
	rep := tinyStorm(t)
	var got []string
	byKey := map[string]StormRow{}
	for _, row := range rep.Rows {
		byKey[row.key()] = row
		if row.Workload == "mixed" {
			continue
		}
		got = append(got, row.key())
		if row.Ops != 2*64 {
			t.Errorf("%s ops = %d, want 128", row.key(), row.Ops)
		}
		if want := fmt.Sprintf("write/io0us/p%d/biglock/off", row.Procs); row.Ref != want {
			t.Errorf("%s reference = %s, want %s", row.key(), row.Ref, want)
		}
		positive(t, row.key()+" rates", row.OpsPerSec, row.NsPerOp, row.Speedup)
	}
	want := []string{
		"write/io0us/p1/biglock/off", "write/io0us/p1/sharded/off", "writevec/io0us/p1/sharded/off",
		"write/io0us/p8/biglock/off", "write/io0us/p8/sharded/off", "writevec/io0us/p8/sharded/off",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hot-path rows = %v, want %v", got, want)
	}
	if rep.HotPathGateMin != 1.5 {
		t.Errorf("hot-path gate = %v, want 1.5", rep.HotPathGateMin)
	}
	if w := byKey["writevec/io0us/p8/sharded/off"].Speedup; rep.HeadlineHotPath != w {
		t.Errorf("hot-path headline = %v, want the p8 writevec speedup %v", rep.HeadlineHotPath, w)
	}
	if rep.HotPathPass != (rep.HeadlineHotPath >= rep.HotPathGateMin) {
		t.Errorf("hot-path pass = %v with headline %v", rep.HotPathPass, rep.HeadlineHotPath)
	}
	stormGate(t, rep, &rep.HotPathPass)
}

// TestTelemetryShape checks the storm's recorder-level cells, the ones
// the retired -telemetry experiment measured: the mixed storm at
// GOMAXPROCS 8 with no recorder and with the recorder off, deny and all,
// at both I/O latencies, and the telemetry gate read as io off over none.
func TestTelemetryShape(t *testing.T) {
	rep := tinyStorm(t)
	byKey := map[string]StormRow{}
	for _, row := range rep.Rows {
		byKey[row.key()] = row
	}
	for _, io := range []int{0, stormIOus} {
		none := fmt.Sprintf("mixed/io%dus/p8/sharded/none", io)
		for _, level := range []string{"none", "off", "deny", "all"} {
			key := fmt.Sprintf("mixed/io%dus/p8/sharded/%s", io, level)
			row, ok := byKey[key]
			if !ok {
				t.Errorf("recorder row %s missing", key)
				continue
			}
			if row.Ops != 2*120 {
				t.Errorf("%s ops = %d, want 240", key, row.Ops)
			}
			positive(t, key+" rates", row.OpsPerSec, row.NsPerOp, row.NsPerOp/byKey[none].NsPerOp)
		}
	}
	if rep.TelemetryGateMax != 1.02 {
		t.Errorf("telemetry gate = %v, want 1.02", rep.TelemetryGateMax)
	}
	off := byKey[fmt.Sprintf("mixed/io%dus/p8/sharded/off", stormIOus)]
	none := byKey[fmt.Sprintf("mixed/io%dus/p8/sharded/none", stormIOus)]
	if w := off.NsPerOp / none.NsPerOp; rep.HeadlineIOOff != w {
		t.Errorf("io off headline = %v, want off/none ns %v", rep.HeadlineIOOff, w)
	}
	if rep.TelemetryPass != (rep.HeadlineIOOff <= rep.TelemetryGateMax) {
		t.Errorf("telemetry pass = %v with headline %v", rep.TelemetryPass, rep.HeadlineIOOff)
	}
	stormGate(t, rep, &rep.TelemetryPass)
}

// TestStormCountsIssuedOps: a row's op count is what its storm issued.
// A size below one loop iteration issues nothing, so it is refused
// rather than timed into +Inf rates; a write count that is not a
// multiple of the batch is rounded up by the vector rows, and counted so.
func TestStormCountsIssuedOps(t *testing.T) {
	for _, sizes := range [][2]int{{0, 16}, {5, 16}, {11, 16}, {12, 0}} {
		if rep, err := Storm(1, sizes[0], sizes[1], 1); err == nil {
			t.Errorf("Storm(1, %d, %d, 1): no error, report %+v", sizes[0], sizes[1], rep)
		}
	}
	rep, err := Storm(1, 30, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		want := map[string]int{"mixed": 24, "write": 20, "writevec": 32}[row.Workload]
		if row.Ops != want {
			t.Errorf("%s ops = %d, want %d", row.key(), row.Ops, want)
		}
	}
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
	// The barrier counts are deterministic, so the checked-in table pins
	// the elimination results themselves, not just their shape.
	data, err := os.ReadFile("../../BENCH_barriers.json")
	if err != nil {
		t.Fatal(err)
	}
	var checked BarrierReport
	if err := json.Unmarshal(data, &checked); err != nil {
		t.Fatal(err)
	}
	if len(checked.Rows) != len(rep.Rows) {
		t.Fatalf("BENCH_barriers.json has %d rows, Barriers() %d", len(checked.Rows), len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row != checked.Rows[i] {
			t.Errorf("row %d drifted from BENCH_barriers.json\n got: %+v\nwant: %+v", i, row, checked.Rows[i])
		}
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
		"BENCH_netd.json":     tinyNetd(t),
		"BENCH_cluster.json":  tinyCluster(t),
		"BENCH_trace.json":    tinyTrace(t),
		"BENCH_budget.json":   tinyBudget(t),
		"BENCH_storm.json":    tinyStorm(t),
		"BENCH_barriers.json": tinyBarriers(t),
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
		"netd":      func() (any, error) { return Netd(10, 0) },
		"cluster":   func() (any, error) { return Cluster(10, 0) },
		"trace":     func() (any, error) { return Trace(10, 0) },
		"budget":    func() (any, error) { return Budget(10, 0) },
		"storm":     func() (any, error) { return Storm(2, 24, 16, 0) },
		"compile":   func() (any, error) { return CompileTime(0) },
		"jvm":       func() (any, error) { return JVMOverhead(10, 0, false) },
		"regions":   func() (any, error) { return RegionDensity(10, 0) },
		"apps":      func() (any, error) { return Apps(1, 0) },
		"ablations": func() (any, error) { return Ablations(10, 2, 0) },
	} {
		rep, err := run()
		if err == nil {
			t.Errorf("%s with 0 trials: no error, report %+v", name, rep)
		}
	}
}
