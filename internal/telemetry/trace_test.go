package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTraceBindStamp: a bound endpoint's inode stamps trace context onto
// events that carry it; unbound inodes and unbinding leave events clean.
func TestTraceBindStamp(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.SetNodeIdentity(7, 3)
	ctx := TraceCtx{TraceID: 99, Hop: 1, Origin: 5, OriginEpoch: 2}
	r.BindTrace(42, ctx)
	if !r.TraceBound(42) {
		t.Fatal("bound inode not reported bound")
	}
	if r.TraceBound(41) {
		t.Fatal("unbound inode reported bound")
	}

	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny, Ino: 42})
	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny, Ino: 41})
	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny}) // no inode at all
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("recorded %d events, want 3", len(evs))
	}
	if e := evs[0]; e.TraceID != 99 || e.TraceHop != 1 || e.TraceOrigin != 5 || e.TraceEpoch != 2 {
		t.Fatalf("bound-inode event not stamped: %+v", e)
	}
	for i, e := range evs[1:] {
		if e.TraceID != 0 {
			t.Fatalf("event %d stamped without binding: %+v", i+1, e)
		}
	}
	for _, e := range evs {
		if e.Node != 7 || e.NodeEpoch != 3 {
			t.Fatalf("node identity not stamped: %+v", e)
		}
	}

	r.UnbindTrace(42)
	if r.TraceBound(42) {
		t.Fatal("inode still bound after unbind")
	}
	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny, Ino: 42})
	evs = r.Snapshot()
	if e := evs[len(evs)-1]; e.TraceID != 0 {
		t.Fatalf("event stamped after unbind: %+v", e)
	}
}

// TestTraceStampPreservesExisting: an event that already carries a trace
// (a relayed event) is not overwritten by a local binding.
func TestTraceStampPreservesExisting(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.BindTrace(42, TraceCtx{TraceID: 99})
	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny, Ino: 42, TraceID: 123, TraceHop: 2})
	evs := r.Snapshot()
	if e := evs[0]; e.TraceID != 123 || e.TraceHop != 2 {
		t.Fatalf("pre-stamped trace overwritten: %+v", e)
	}
}

// TestTraceNextHop: the transmitted context is one hop further on, and
// the local copy is untouched.
func TestTraceNextHop(t *testing.T) {
	c := TraceCtx{TraceID: 1, Hop: 0, Origin: 1, OriginEpoch: 1}
	n := c.NextHop()
	if n.Hop != 1 || c.Hop != 0 {
		t.Fatalf("NextHop: got %d, local %d; want 1 and 0", n.Hop, c.Hop)
	}
	if n.TraceID != c.TraceID || n.Origin != c.Origin || n.OriginEpoch != c.OriginEpoch {
		t.Fatalf("NextHop changed identity fields: %+v vs %+v", n, c)
	}
}

// TestDumpV1StillReadable: a version-1 dump — no meta header, no v field,
// no node/trace fields — parses with nil meta and zeroed v2 fields.
func TestDumpV1StillReadable(t *testing.T) {
	v1 := `{"seq":1,"tid":9,"layer":"lsm","kind":"deny","rule":"secrecy","op":"read","site":"hook.FilePermission","src_s":[4],"src_i":[],"dst_s":[],"dst_i":[],"cap_p":[],"cap_m":[],"delta":[4]}
{"seq":2,"tid":9,"layer":"lsm","kind":"allow","op":"write","site":"hook.FilePermission","src_s":[],"src_i":[],"dst_s":[],"dst_i":[],"cap_p":[],"cap_m":[]}
`
	meta, evs, err := ReadDumpFull(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Fatalf("v1 dump produced meta %+v, want nil", meta)
	}
	if len(evs) != 2 {
		t.Fatalf("parsed %d events, want 2", len(evs))
	}
	e := evs[0]
	if e.Node != 0 || e.TraceID != 0 || e.TraceHop != 0 {
		t.Fatalf("v1 event grew v2 fields: %+v", e)
	}
	if e.Rule != RuleSecrecy || e.Seq != 1 {
		t.Fatalf("v1 event misparsed: %+v", e)
	}
}

// TestDumpMetaRoundTrip: DumpWithMeta writes a v2 header line that
// ReadDumpFull returns, with the metrics snapshot intact.
func TestDumpMetaRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	r.SetNodeIdentity(4, 9)
	r.M.ObserveLayer(LayerNet, 1500)
	r.Emit(Event{Layer: LayerLSM, Kind: KindDeny, Ino: 1})
	var buf bytes.Buffer
	if err := r.DumpWithMeta(&buf); err != nil {
		t.Fatal(err)
	}
	meta, evs, err := ReadDumpFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.V != DumpVersion || meta.Node != 4 || meta.NodeEpoch != 9 {
		t.Fatalf("meta = %+v, want v%d node 4 epoch 9", meta, DumpVersion)
	}
	if meta.Snapshot == nil || len(meta.Snapshot.LayerLatency[LayerNet.String()]) == 0 {
		t.Fatalf("meta snapshot missing net layer latency: %+v", meta.Snapshot)
	}
	if len(evs) != 1 || evs[0].Node != 4 {
		t.Fatalf("events = %+v", evs)
	}
}

// TestMergeSnapshots: counters sum, histograms add bucket-wise, stale
// slices are counted but still merged, nodes sort by id.
func TestMergeSnapshots(t *testing.T) {
	mk := func(node uint64, denials uint64, upper uint64, count uint64, stale bool) NodeSnapshot {
		return NodeSnapshot{
			Node: node, Epoch: 1, Stale: stale,
			Snapshot: MetricsSnapshot{
				Denials:       denials,
				DenialsByRule: map[string]uint64{"secrecy": denials},
				LayerLatency: map[string][]HistBucket{
					"net": {{UpperNS: upper, Count: count}},
				},
			},
		}
	}
	// A stats blob from an older peer still carries the verdict-cache
	// counters this snapshot no longer has; it decodes (unknown fields
	// are ignored) and merges like any other slice.
	var legacy MetricsSnapshot
	blob := `{"level":"deny","denials":4,"denials_by_rule":{"secrecy":4},"verdict_cache_hits":9,"verdict_cache_misses":1,"verdict_cache_invalidations":2}`
	if err := json.Unmarshal([]byte(blob), &legacy); err != nil {
		t.Fatalf("older peer's stats blob did not decode: %v", err)
	}
	cs := MergeSnapshots([]NodeSnapshot{
		mk(3, 5, 1024, 7, true),
		{Node: 4, Epoch: 1, Snapshot: legacy},
		mk(1, 2, 1024, 3, false),
		mk(2, 1, 2048, 4, false),
	})
	if got := []uint64{cs.Nodes[0].Node, cs.Nodes[1].Node, cs.Nodes[2].Node, cs.Nodes[3].Node}; got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("nodes not sorted: %v", got)
	}
	if cs.StaleNodes != 1 {
		t.Fatalf("stale nodes = %d, want 1", cs.StaleNodes)
	}
	if cs.Merged.Denials != 12 || cs.Merged.DenialsByRule["secrecy"] != 12 {
		t.Fatalf("merged denials = %d/%v, want 12 (stale and older-peer slices still count)", cs.Merged.Denials, cs.Merged.DenialsByRule)
	}
	net := cs.Merged.LayerLatency["net"]
	if len(net) != 2 || net[0].UpperNS != 1024 || net[0].Count != 10 || net[1].UpperNS != 2048 || net[1].Count != 4 {
		t.Fatalf("merged net histogram = %+v", net)
	}

	var buf bytes.Buffer
	if err := cs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"laminar_cluster_nodes 4",
		"laminar_cluster_stale_nodes 1",
		`laminar_cluster_node_stale{node="3",epoch="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestMergeHistogramsDisjointAndEmpty: merging keeps ascending order
// across disjoint bucket sets and copies rather than aliasing empties.
func TestMergeHistogramsDisjointAndEmpty(t *testing.T) {
	a := []HistBucket{{UpperNS: 1, Count: 1}, {UpperNS: 4, Count: 2}}
	b := []HistBucket{{UpperNS: 2, Count: 3}}
	m := mergeHistograms(a, b)
	want := []HistBucket{{UpperNS: 1, Count: 1}, {UpperNS: 2, Count: 3}, {UpperNS: 4, Count: 2}}
	if len(m) != len(want) {
		t.Fatalf("merged = %+v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, m[i], want[i])
		}
	}
	cp := mergeHistograms(nil, b)
	cp[0].Count = 77
	if b[0].Count != 3 {
		t.Fatal("mergeHistograms(nil, b) aliased b")
	}
}

// TestHistQuantile: the quantile is the upper bound of the bucket the
// rank falls in; empty histograms report ok=false.
func TestHistQuantile(t *testing.T) {
	buckets := []HistBucket{{UpperNS: 10, Count: 9}, {UpperNS: 100, Count: 1}}
	if q, ok := HistQuantile(buckets, 0.50); !ok || q != 10 {
		t.Fatalf("p50 = %d,%v want 10", q, ok)
	}
	if q, ok := HistQuantile(buckets, 0.99); !ok || q != 100 {
		t.Fatalf("p99 = %d,%v want 100", q, ok)
	}
	if _, ok := HistQuantile(nil, 0.5); ok {
		t.Fatal("empty histogram produced a quantile")
	}
}

// TestExplainRouteGroupsAndDedups: repeated identical checks at a hop
// collapse; hops order by hop counter then node; the first denying hop
// sets the verdict; TracedDenials lists ids newest-denial-first.
func TestExplainRouteGroupsAndDedups(t *testing.T) {
	deny := Event{Seq: 9, Layer: LayerLSM, Kind: KindDeny, Rule: RuleSecrecy,
		Site: "hook.FilePermission", Op: "read",
		Node: 3, NodeEpoch: 1, TraceID: 77, TraceHop: 2, TraceOrigin: 1, TraceEpoch: 1}
	relay := Event{Seq: 4, Layer: LayerLSM, Kind: KindAllow,
		Site: "lsm.checkAccess", Op: "read", Has: HasSrcS | HasSrcI | HasDstS | HasDstI,
		Node: 2, NodeEpoch: 1, TraceID: 77, TraceHop: 1, TraceOrigin: 1, TraceEpoch: 1}
	relayDup := relay
	relayDup.Seq = 5 // the relay pump re-checks every tick
	other := Event{Seq: 2, Layer: LayerLSM, Kind: KindDeny, Rule: RuleIntegrity,
		Site: "x", Op: "write", Node: 9, NodeEpoch: 1, TraceID: 88, TraceHop: 0}
	noise := Event{Seq: 3, Layer: LayerLSM, Kind: KindAllow, Site: "hook.TaskAlloc",
		Node: 2, NodeEpoch: 1, TraceID: 77, TraceHop: 1} // operand-free allow: excluded

	rep, err := ExplainRoute(77, []Event{deny, relay, relayDup, other, noise})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hops) != 2 {
		t.Fatalf("hops = %+v, want 2", rep.Hops)
	}
	if rep.Hops[0].Hop != 1 || rep.Hops[0].Node != 2 || len(rep.Hops[0].Checks) != 1 {
		t.Fatalf("hop[0] = %+v, want deduped relay hop 1", rep.Hops[0])
	}
	if rep.Hops[1].Hop != 2 || !rep.Hops[1].Denied {
		t.Fatalf("hop[1] = %+v, want denied hop 2", rep.Hops[1])
	}
	if !rep.Denied || rep.DeniedHop != 2 || rep.Origin != 1 {
		t.Fatalf("report verdict = %+v", rep)
	}

	if _, err := ExplainRoute(123, []Event{deny}); err == nil {
		t.Fatal("unknown trace id did not error")
	}

	ids := TracedDenials([]Event{deny, other})
	if len(ids) != 2 || ids[0] != 77 || ids[1] != 88 {
		t.Fatalf("TracedDenials = %v, want [77 88] (newest denial first)", ids)
	}

	out := FormatRoute(rep)
	for _, want := range []string{"hop 1 @ node 2", "hop 2 @ node 3", "DENIED", "verdict: flow denied at hop 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatRoute missing %q:\n%s", want, out)
		}
	}
}
