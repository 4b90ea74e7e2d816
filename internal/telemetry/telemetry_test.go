package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"laminar/internal/difc"
)

func flowDenial(t *testing.T, op string) error {
	t.Helper()
	src := difc.Labels{S: difc.NewLabel(7, 9)}
	dst := difc.Labels{S: difc.NewLabel(7)}
	err := difc.CheckFlow(op, src, dst)
	if err == nil {
		t.Fatal("expected flow denial")
	}
	return err
}

func TestLevelsGate(t *testing.T) {
	r := NewRecorder()
	if r.Active() || r.Verbose() {
		t.Fatal("new recorder must be off")
	}
	r.SetLevel(LevelDeny)
	if !r.Active() || r.Verbose() {
		t.Fatal("LevelDeny: active but not verbose")
	}
	r.SetLevel(LevelAll)
	if !r.Active() || !r.Verbose() {
		t.Fatal("LevelAll: active and verbose")
	}
	for l, want := range map[Level]string{LevelOff: "off", LevelDeny: "deny", LevelAll: "all"} {
		if l.String() != want {
			t.Fatalf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

func TestEmitDenyClassifiesFlowError(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.EmitDeny(LayerLSM, "hook.FilePermission", "read", 3, 1, flowDenial(t, "read"))

	evs := r.Denials()
	if len(evs) != 1 {
		t.Fatalf("got %d denials, want 1", len(evs))
	}
	e := evs[0]
	if e.Rule != RuleSecrecy {
		t.Fatalf("rule = %v, want secrecy", e.Rule)
	}
	if len(e.Delta) != 1 || e.Delta[0] != 9 {
		t.Fatalf("delta = %v, want [t9]", e.Delta)
	}
	src, ok := e.SrcLabels()
	if !ok || !src.S.Equal(difc.NewLabel(7, 9)) {
		t.Fatalf("source labels not recoverable: %v ok=%v", src, ok)
	}
	if got := r.M.Denials.Load(); got != 1 {
		t.Fatalf("denial counter = %d", got)
	}
	if got := r.MetricsSnapshot().DenialsByRule["secrecy"]; got != 1 {
		t.Fatalf("by-rule counter = %d", got)
	}
}

func TestEmitDenyClassifiesChangeError(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	from := difc.NewLabel(1)
	to := difc.NewLabel(1, 2)
	caps := difc.EmptyCapSet
	err := difc.CheckChange("set_task_label", from, to, caps)
	if err == nil {
		t.Fatal("expected change denial")
	}
	r.EmitDeny(LayerLSM, "hook.SetTaskLabel", "set_task_label", 5, 2, err)
	e := r.Denials()[0]
	if e.Rule != RuleLabelChange || e.Check != "change" {
		t.Fatalf("rule/check = %v/%q", e.Rule, e.Check)
	}
	if len(e.Delta) != 1 || e.Delta[0] != 2 {
		t.Fatalf("delta = %v, want [t2]", e.Delta)
	}
}

func TestEmitDenyUnstructuredError(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.EmitDeny(LayerKernel, "sys.read", "read", 1, 1, errPlain("access denied"))
	e := r.Denials()[0]
	if e.Rule != RuleNone || e.Detail != "access denied" {
		t.Fatalf("unexpected classification: %+v", e)
	}
	if res := Replay(e); res.Replayable {
		t.Fatal("unstructured denial must not be replayable")
	}
}

type errPlain string

func (e errPlain) Error() string { return string(e) }

func TestRingOverwriteKeepsFreshest(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	const n = ringSize*2 + 17
	for i := 0; i < n; i++ {
		r.Emit(Event{Layer: LayerKernel, Kind: KindDeny, TID: 4, Site: "s"})
	}
	evs := r.Snapshot()
	if len(evs) != ringSize {
		t.Fatalf("snapshot holds %d events, want %d", len(evs), ringSize)
	}
	// The freshest ringSize sequence numbers must all be present, in order.
	for i, e := range evs {
		want := uint64(n - ringSize + i + 1)
		if e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestRingConcurrentEmitRaceClean(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelAll)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.EmitAllow(LayerKernel, "sys.write", "write", tid, 1)
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.M.Allows.Load(); got != 8*500 {
		t.Fatalf("allow counter = %d, want %d", got, 8*500)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not in Seq order at %d", i)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.EmitDeny(LayerLSM, "hook.FilePermission", "write", 2, 1, flowDenial(t, "write"))
	err := difc.CheckAcquire("create", difc.NewLabel(3), difc.NewLabel(3, 4), difc.EmptyCapSet)
	r.EmitDeny(LayerLSM, "hook.InodeInitSecurity", "create", 2, 1, err)
	r.EmitFaultTrip(LayerKernel, "sys.open", 2, "error")

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err2 := ReadDump(&buf)
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(back) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(back))
	}
	for i, e := range back {
		orig := r.Snapshot()[i]
		if e.Kind != orig.Kind || e.Rule != orig.Rule || e.Op != orig.Op || e.Site != orig.Site || e.Seq != orig.Seq {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, orig)
		}
	}
	// Replays must still run and match on the loaded events.
	for _, e := range back[:2] {
		res := Replay(e)
		if !res.Replayable || !res.Matches {
			t.Fatalf("loaded event not replayable/matching: %+v -> %+v", e, res)
		}
	}
	if res := Replay(back[2]); res.Replayable {
		t.Fatal("fault trip must not be replayable")
	}
}

func TestReplayEveryRule(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)

	// secrecy
	r.EmitDeny(LayerLSM, "s", "read", 1, 1, flowDenial(t, "read"))
	// integrity
	src := difc.Labels{I: difc.NewLabel(1)}
	dst := difc.Labels{I: difc.NewLabel(1, 2)}
	r.EmitDeny(LayerLSM, "s", "write", 1, 1, difc.CheckFlow("write", src, dst))
	// label-change
	r.EmitDeny(LayerLSM, "s", "set_task_label", 1, 1,
		difc.CheckChange("set_task_label", difc.NewLabel(5), difc.EmptyLabel, difc.EmptyCapSet))
	// acquire
	r.EmitDeny(LayerRT, "s", "region-enter", 1, 1,
		difc.CheckAcquire("region-enter", difc.EmptyLabel, difc.NewLabel(6), difc.EmptyCapSet))
	// region drop + caps subset via CheckEnterRegion
	p := difc.Labels{S: difc.NewLabel(8)}
	r.EmitDeny(LayerRT, "s", "region", 1, 1,
		difc.CheckEnterRegion(p, difc.EmptyCapSet, difc.Labels{}, difc.EmptyCapSet))
	rc := difc.EmptyCapSet.Grant(9, difc.CapMinus)
	r.EmitDeny(LayerRT, "s", "region", 1, 1,
		difc.CheckEnterRegion(difc.Labels{}, difc.EmptyCapSet, difc.Labels{}, rc))

	evs := r.Denials()
	if len(evs) != 6 {
		t.Fatalf("recorded %d denials, want 6", len(evs))
	}
	wantRules := []Rule{RuleSecrecy, RuleIntegrity, RuleLabelChange, RuleLabelChange, RuleLabelChange, RuleCapability}
	for i, e := range evs {
		if e.Rule != wantRules[i] {
			t.Fatalf("event %d rule = %v, want %v", i, e.Rule, wantRules[i])
		}
		res := Replay(e)
		if !res.Replayable {
			t.Fatalf("event %d not replayable: %s", i, res.Reason)
		}
		if !res.Matches {
			t.Fatalf("event %d replay diverged: %s", i, res.Reason)
		}
	}
}

func TestExplainNamesRuleAndDelta(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.EmitDeny(LayerLSM, "hook.FilePermission", "read", 1, 1, flowDenial(t, "read"))
	out := Explain(r.Denials()[0])
	for _, want := range []string{"secrecy", "Bell–LaPadula", "t9", "MATCHES"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestSubscribeAndUnsubscribe(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	var got []Event
	cancel := r.Subscribe(func(e Event) { got = append(got, e) })
	r.Emit(Event{Kind: KindDeny, Site: "a"})
	cancel()
	r.Emit(Event{Kind: KindDeny, Site: "b"})
	if len(got) != 1 || got[0].Site != "a" {
		t.Fatalf("subscriber saw %+v", got)
	}
}

func TestCounterStripesFold(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(k)
			}
		}(uint64(g))
	}
	wg.Wait()
	if c.Load() != 16000 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	bs := h.snapshot()
	if len(bs) != 3 {
		t.Fatalf("buckets = %+v", bs)
	}
	var total uint64
	for _, b := range bs {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket sum = %d", total)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.EmitDeny(LayerLSM, "hook.FilePermission", "read", 1, 1, flowDenial(t, "read"))
	r.M.Hooks.Inc("hook.FilePermission", 1)
	r.M.HookLatency.Observe(time.Microsecond)
	var buf bytes.Buffer
	if err := r.MetricsSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"laminar_denials_total 1",
		`laminar_denials_by_rule_total{rule="secrecy"} 1`,
		`laminar_hook_calls_total{hook="hook.FilePermission"} 1`,
		"laminar_hook_latency_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyVsUnknownLabelInDump(t *testing.T) {
	// An event with an empty interned label must round-trip as empty
	// (replayable); one with id 0 must round-trip as unknown.
	e := Event{
		Kind: KindDeny, Rule: RuleSecrecy, Op: "read", Layer: LayerLSM,
		SrcS:  difc.Intern(difc.NewLabel(11)).InternedID(),
		SrcI:  difc.Intern(difc.EmptyLabel).InternedID(),
		DstS:  difc.Intern(difc.EmptyLabel).InternedID(),
		DstI:  difc.Intern(difc.EmptyLabel).InternedID(),
		Delta: []difc.Tag{11},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, []Event{e}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"src_i":[]`) {
		t.Fatalf("empty label must serialise as [], got %s", buf.String())
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res := Replay(back[0]); !res.Replayable || !res.Matches {
		t.Fatalf("replay on round-tripped event failed: %+v", res)
	}

	unknown := Event{Kind: KindDeny, Rule: RuleSecrecy, Op: "read"}
	var buf2 bytes.Buffer
	if err := WriteDump(&buf2, []Event{unknown}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), `"src_s":null`) {
		t.Fatalf("unknown label must serialise as null, got %s", buf2.String())
	}
	back2, _ := ReadDump(&buf2)
	if res := Replay(back2[0]); res.Replayable {
		t.Fatal("event with unknown operands must not be replayable")
	}
}

func TestResetClearsRing(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.Emit(Event{Kind: KindDeny})
	r.Reset()
	if len(r.Snapshot()) != 0 {
		t.Fatal("reset left events behind")
	}
	r.Emit(Event{Kind: KindDeny})
	if evs := r.Snapshot(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("post-reset emit: %+v", evs)
	}
}
