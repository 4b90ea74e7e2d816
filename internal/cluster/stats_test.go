package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

func TestStatsCtrlCodecRoundTrip(t *testing.T) {
	blob := []byte(`{"denials":4}`)
	in := ctrlMsg{Type: msgStats, From: 2, Epoch: 5, Addr: "127.0.0.1:9", Blob: blob}
	out, err := parseCtrl(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgStats || out.From != 2 || out.Epoch != 5 || out.Addr != in.Addr {
		t.Fatalf("header round trip = %+v", out)
	}
	if !bytes.Equal(out.Blob, blob) {
		t.Fatalf("blob round trip = %q", out.Blob)
	}
	// The parsed blob must be a copy, not a window into the frame buffer.
	enc := encodeCtrl(in)
	out, _ = parseCtrl(enc)
	for i := range enc {
		enc[i] = 0xFF
	}
	if !bytes.Equal(out.Blob, blob) {
		t.Fatal("parsed blob aliases the frame buffer")
	}
}

func TestStatsCtrlCodecStrict(t *testing.T) {
	good := encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1, Blob: []byte("{}")})
	cases := map[string][]byte{
		"trailing bytes":        append(append([]byte(nil), good...), 0xAA),
		"truncated blob header": good[:len(good)-3],
		"blob shorter than len": good[:len(good)-1],
	}
	for name, b := range cases {
		if _, err := parseCtrl(b); !errors.Is(err, ErrCtrlMalformed) {
			t.Errorf("%s: err = %v, want ErrCtrlMalformed", name, err)
		}
	}
	// Type 5 is retired and stays unassigned; nothing past the last type
	// parses either. The body is a well-formed ping's, so only the type
	// byte can be at fault.
	ping := encodeCtrl(ctrlMsg{Type: msgPing, From: 1, Epoch: 1})
	for _, typ := range []byte{5, byte(msgTypeMax) + 1} {
		b := append([]byte{typ}, ping[1:]...)
		_, err := parseCtrl(b)
		if !errors.Is(err, ErrCtrlMalformed) || !strings.Contains(err.Error(), "unknown type") {
			t.Errorf("type %d: err = %v, want unknown-type ErrCtrlMalformed", typ, err)
		}
	}
	// A declared blob length past the cap is rejected before allocation.
	huge := encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1,
		Blob: bytes.Repeat([]byte{'x'}, maxStatsBlob+1)})
	if _, err := parseCtrl(huge); !errors.Is(err, ErrCtrlMalformed) {
		t.Errorf("oversize blob: err = %v, want ErrCtrlMalformed", err)
	}
	// Non-stats messages still refuse trailing bytes (no blob arm).
	if _, err := parseCtrl(append(ping, 0x00)); !errors.Is(err, ErrCtrlMalformed) {
		t.Errorf("ping trailing bytes: err = %v, want ErrCtrlMalformed", err)
	}
}

// TestCtrlCodecMemberFrameLayout pins the byte layout of the gossip
// frames: header, address, then the member list and nothing after it.
func TestCtrlCodecMemberFrameLayout(t *testing.T) {
	u64 := func(v byte) []byte { return []byte{0, 0, 0, 0, 0, 0, 0, v} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ack := ctrlMsg{Type: msgJoinAck, From: 1, Epoch: 2, Addr: "a",
		Members: []memberWire{{ID: 3, Epoch: 4, State: StateSuspect, Addr: "bc"}}}
	cases := []struct {
		name string
		msg  ctrlMsg
		want []byte
	}{
		{"ping", ctrlMsg{Type: msgPing, From: 9, Epoch: 7},
			cat([]byte{1}, u64(9), u64(7), []byte{0, 0}, []byte{0, 0})},
		{"join-ack", ack,
			cat([]byte{3}, u64(1), u64(2), []byte{0, 1, 'a'}, []byte{0, 1},
				u64(3), u64(4), []byte{byte(StateSuspect)}, []byte{0, 2, 'b', 'c'})},
	}
	for _, tc := range cases {
		enc := encodeCtrl(tc.msg)
		if !bytes.Equal(enc, tc.want) {
			t.Errorf("%s: encoded % x, want % x", tc.name, enc, tc.want)
		}
		got, err := parseCtrl(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("%s: round trip = %+v, want %+v", tc.name, got, tc.msg)
		}
	}
}

// TestStatsBroadcastAggregates: stats broadcasts reach every peer on the
// tick period and merge into a cluster-wide snapshot with no stale
// slices while everyone is alive.
func TestStatsBroadcastAggregates(t *testing.T) {
	nodes := formCluster(t, 3)
	n1 := nodes[0]
	tickUntil(t, func() bool {
		return len(n1.cl.ClusterSnapshot().Nodes) >= 3
	}, nodes...)
	cs := n1.cl.ClusterSnapshot()
	if cs.StaleNodes != 0 {
		t.Fatalf("stale nodes = %d while all alive: %+v", cs.StaleNodes, cs.Nodes)
	}
	// The join protocol itself ran hooks on every node, so the merged
	// view must show more hook invocations than node 1 alone.
	var local uint64
	for _, n := range cs.Nodes {
		if n.Node == 1 {
			for _, v := range n.Snapshot.Hooks {
				local += v
			}
		}
	}
	var merged uint64
	for _, v := range cs.Merged.Hooks {
		merged += v
	}
	if merged <= local {
		t.Fatalf("merged hooks %d not larger than node 1's %d", merged, local)
	}
	if n1.rec.M.Extra.Get("cluster.stats.heard").Load() == 0 {
		t.Fatal("no stats broadcasts heard")
	}
}

// TestStatsStaleness: a dead peer's cached slice goes stale with the
// detector's verdict as the reason, and a slice from a superseded
// incarnation epoch is stale even while the peer is alive.
func TestStatsStaleness(t *testing.T) {
	nodes := formCluster(t, 3)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	tickUntil(t, func() bool {
		return len(n1.cl.ClusterSnapshot().Nodes) >= 3
	}, nodes...)

	// Epoch staleness: rewind the cached epoch below the membership's.
	n1.cl.mu.Lock()
	ps := n1.cl.stats[3]
	ps.epoch = 0
	n1.cl.stats[3] = ps
	n1.cl.mu.Unlock()
	found := false
	for _, n := range n1.cl.ClusterSnapshot().Nodes {
		if n.Node == 3 {
			found = true
			if !n.Stale || !strings.Contains(n.StaleWhy, "epoch") {
				t.Fatalf("superseded-epoch slice = %+v, want stale with epoch reason", n)
			}
		}
	}
	if !found {
		t.Fatal("node 3 slice missing")
	}

	// Liveness staleness: kill node 3 and wait for the detector.
	n3.cl.Close()
	tickUntil(t, func() bool { return memberState(n1.cl, 3) != StateAlive }, n1, n2)
	for _, n := range n1.cl.ClusterSnapshot().Nodes {
		if n.Node == 3 && !n.Stale {
			t.Fatalf("dead peer's slice not stale: %+v", n)
		}
	}
}

// TestStatsBlobDecodeFailureIsProvenance: a syntactically valid control
// frame whose JSON blob does not decode is dropped with a LayerCluster
// denial event, never a crash or partial apply.
func TestStatsBlobDecodeFailureIsProvenance(t *testing.T) {
	n1 := bootCluster(t, Config{ID: 1})
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	var denies int
	unsub := n1.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Site == "cluster.stats" {
			denies++
		}
	})
	defer unsub()
	n1.cl.mu.Lock()
	n1.cl.onStats(ctrlMsg{Type: msgStats, From: 9, Epoch: 1, Blob: []byte("{not json")})
	n1.cl.mu.Unlock()
	if denies == 0 {
		t.Fatal("undecodable stats blob dropped without provenance")
	}
	if len(n1.cl.ClusterSnapshot().Nodes) != 1 {
		t.Fatal("undecodable stats blob was cached")
	}
}

// TestStatsIdenticalBlobReusesSnapshot: a peer re-sending byte-identical
// stats keeps its decoded snapshot but is restamped with the new epoch
// and tick, so staleness reads exactly as if the blob had been decoded
// again; a changed blob is decoded; a malformed blob after a good one is
// still denied with cluster.stats provenance and leaves the cache as it
// was.
func TestStatsIdenticalBlobReusesSnapshot(t *testing.T) {
	n1 := bootCluster(t, Config{ID: 1})
	var denies int
	unsub := n1.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Site == "cluster.stats" {
			denies++
		}
	})
	defer unsub()
	send := func(epoch uint64, blob string) {
		n1.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgStats, From: 9, Epoch: epoch,
			Addr: "127.0.0.1:1", Blob: []byte(blob)}))
	}
	cached := func() peerStats {
		n1.cl.mu.Lock()
		defer n1.cl.mu.Unlock()
		return n1.cl.stats[9]
	}
	slice9 := func() telemetry.NodeSnapshot {
		for _, n := range n1.cl.ClusterSnapshot().Nodes {
			if n.Node == 9 {
				return n
			}
		}
		t.Fatal("node 9 slice missing")
		return telemetry.NodeSnapshot{}
	}

	const good = `{"denials":4,"extra":{"x":1}}`
	send(1, good)
	first := cached()
	if first.snap.Denials != 4 || first.snap.Extra["x"] != 1 {
		t.Fatalf("decoded snapshot = %+v", first.snap)
	}
	// Ticks pass and the peer comes back under a new epoch with the same
	// counters. Unrestamped, the slice would read stale ("epoch 1 < 2").
	n1.cl.mu.Lock()
	n1.cl.now += 5
	n1.cl.mu.Unlock()
	send(2, good)
	again := cached()
	if again.epoch != 2 || again.tick != first.tick+5 {
		t.Fatalf("identical blob stamped epoch %d tick %d, want 2 and %d", again.epoch, again.tick, first.tick+5)
	}
	if reflect.ValueOf(again.snap.Extra).Pointer() != reflect.ValueOf(first.snap.Extra).Pointer() {
		t.Error("identical blob was decoded again")
	}
	if n := slice9(); n.Stale || n.Epoch != 2 || n.Snapshot.Denials != 4 {
		t.Fatalf("slice after identical blob = %+v", n)
	}

	send(2, `{"denials":7}`)
	if got := cached().snap; got.Denials != 7 || got.Extra != nil {
		t.Fatalf("changed blob not decoded: %+v", got)
	}

	send(2, "{not json")
	if denies != 1 {
		t.Fatalf("malformed blob after a good one: %d cluster.stats denials, want 1", denies)
	}
	if got := cached().snap; got.Denials != 7 {
		t.Fatalf("malformed blob disturbed the cached snapshot: %+v", got)
	}
}

// TestStatsCtrlCodecBudgetBlob: the optional second blob (ISSUE 10
// budget facts) round-trips, its absence is the valid pre-budget frame,
// and its framing is as strict as the stats blob's.
func TestStatsCtrlCodecBudgetBlob(t *testing.T) {
	led := budget.New()
	led.SetLimit(difc.Tag(7), 2, 100)
	led.Charge("send", difc.Tag(7), 2, 5)
	facts := led.ExportFacts()

	in := ctrlMsg{Type: msgStats, From: 2, Epoch: 5, Blob: []byte("{}"), Budget: facts}
	out, err := parseCtrl(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Budget, facts) {
		t.Fatalf("budget blob round trip = %x, want %x", out.Budget, facts)
	}
	dec, err := budget.DecodeFacts(out.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if f := dec[budget.Key{Tag: 7, Peer: 2}]; f.Spent != 5 || f.Limit != 100 {
		t.Fatalf("decoded fact %+v", f)
	}

	// Absent second blob = pre-budget frame: parses, Budget nil.
	old, err := parseCtrl(encodeCtrl(ctrlMsg{Type: msgStats, From: 1, Epoch: 1, Blob: []byte("{}")}))
	if err != nil || old.Budget != nil {
		t.Fatalf("pre-budget frame: %v budget=%x", err, old.Budget)
	}

	// Strictness: trailing bytes after the budget blob, torn headers and
	// short bodies all reject the frame.
	good := encodeCtrl(in)
	for name, b := range map[string][]byte{
		"trailing bytes":     append(append([]byte(nil), good...), 0xAA),
		"torn budget header": good[:len(good)-len(facts)-2],
		"short budget body":  good[:len(good)-1],
	} {
		if _, err := parseCtrl(b); !errors.Is(err, ErrCtrlMalformed) {
			t.Errorf("%s: err = %v, want ErrCtrlMalformed", name, err)
		}
	}
}

// bootBudgetCluster is bootCluster with a flow-budget ledger installed
// on the kernel.
func bootBudgetCluster(t *testing.T, cfg Config, led *budget.Ledger) *testClusterNode {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec),
		kernel.WithBudget(led))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel, cfg.Module, cfg.Recorder = k, mod, rec
	c := New(cfg)
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &testClusterNode{k: k, mod: mod, user: user, rec: rec, cl: c}
}

// TestBudgetFactsGossip: facts ride the stats frame and semilattice-merge
// into every peer's ledger — the cluster-wide spend is monotone.
func TestBudgetFactsGossip(t *testing.T) {
	led1, led2 := budget.New(), budget.New()
	n1 := bootBudgetCluster(t, Config{ID: 1}, led1)
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	n2 := bootBudgetCluster(t, Config{ID: 2, Seeds: []string{n1.cl.Addr()}}, led2)
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, func() bool {
		return n1.cl.Converged(1, 2) && n2.cl.Converged(1, 2) && n1.cl.Joined() && n2.cl.Joined()
	}, n1, n2)

	led1.SetLimit(difc.Tag(40), 2, 100)
	led1.Charge("send", difc.Tag(40), 2, 30)

	tickUntil(t, func() bool {
		f, ok := led2.Fact(difc.Tag(40), 2)
		return ok && f.Spent >= 30 && f.Limit == 100
	}, n1, n2)

	// The facts reached the receiver's ledger through the stats frame.
	if n := n2.rec.MetricsSnapshot().Extra["cluster.budget.merged"]; n == 0 {
		t.Fatal("receiver counted no cluster.budget.merged facts")
	}

	// Spend on node 2 flows back: merged spent takes the max.
	led2.Charge("send", difc.Tag(40), 2, 50)
	tickUntil(t, func() bool {
		f, _ := led1.Fact(difc.Tag(40), 2)
		return f.Spent >= 80
	}, n1, n2)
}

// TestStatsEvictionOnDeath: a dead peer's cached stats survive,
// stale-labeled, for one merge cycle and are then evicted — long-running
// clusters stop growing their caches.
func TestStatsEvictionOnDeath(t *testing.T) {
	nodes := formCluster(t, 3)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	tickUntil(t, func() bool {
		n1.cl.mu.Lock()
		defer n1.cl.mu.Unlock()
		return len(n1.cl.stats) >= 2
	}, nodes...)

	n3.cl.Close()
	tickUntil(t, func() bool { return memberState(n1.cl, 3) == StateDead }, n1, n2)

	// Immediately after the dead verdict the slice is still cached and
	// stale-labeled — the postmortem window.
	foundStale := false
	for _, ns := range n1.cl.ClusterSnapshot().Nodes {
		if ns.Node == 3 && ns.Stale {
			foundStale = true
		}
	}
	if !foundStale {
		t.Fatal("dead peer's slice missing from the postmortem window")
	}

	// One merge cycle later it is gone.
	tickUntil(t, func() bool {
		n1.cl.mu.Lock()
		_, cached := n1.cl.stats[3]
		n1.cl.mu.Unlock()
		return !cached
	}, n1, n2)
	if n1.rec.M.Extra.Get("cluster.stats.evicted").Load() == 0 {
		t.Fatal("eviction not counted")
	}
	// Node 2 survives untouched in the cache.
	n1.cl.mu.Lock()
	_, n2cached := n1.cl.stats[2]
	n1.cl.mu.Unlock()
	if !n2cached {
		t.Fatal("alive peer evicted")
	}
}
