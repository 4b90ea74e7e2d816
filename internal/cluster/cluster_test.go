package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// testClusterNode is one full stack: kernel, LSM, user task, recorder,
// and a listening cluster node.
type testClusterNode struct {
	k    *kernel.Kernel
	mod  *lsm.Module
	user *kernel.Task
	rec  *telemetry.Recorder
	cl   *Cluster
}

// bootCluster builds a node; cfg's Kernel/Module/Recorder are filled in.
func bootCluster(t *testing.T, cfg Config) *testClusterNode {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
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

// tickUntil ticks the nodes until cond holds or a deadline passes.
func tickUntil(t *testing.T, cond func() bool, nodes ...*testClusterNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			n.cl.Tick()
		}
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timed out ticking")
}

// formCluster boots n nodes (ids 1..n) seeded at node 1 and ticks until
// full mutual convergence.
func formCluster(t *testing.T, n int) []*testClusterNode {
	t.Helper()
	nodes := []*testClusterNode{bootCluster(t, Config{ID: 1})}
	if _, err := nodes[0].cl.Join(); err != nil {
		t.Fatal(err)
	}
	seed := nodes[0].cl.Addr()
	ids := []uint64{1}
	for i := 2; i <= n; i++ {
		nd := bootCluster(t, Config{ID: uint64(i), Seeds: []string{seed}})
		if _, err := nd.cl.Join(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		ids = append(ids, uint64(i))
	}
	tickUntil(t, func() bool {
		for _, nd := range nodes {
			if !nd.cl.Joined() || !nd.cl.Converged(ids...) {
				return false
			}
		}
		return true
	}, nodes...)
	return nodes
}

func TestJoinConvergesThreeNodes(t *testing.T) {
	nodes := formCluster(t, 3)
	// Every node's join change settled to Done.
	for _, nd := range nodes {
		chs := nd.cl.Changes()
		if len(chs) != 1 || chs[0].Kind != "join" || chs[0].Status != StatusDone {
			t.Fatalf("node %d changes = %+v, want one done join", nd.cl.cfg.ID, chs)
		}
	}
	// Gossiped-only members were admitted as SUSPECTS first, promoted only
	// on direct contact: the transitions must appear in the counters.
	promoted := false
	for _, nd := range nodes[1:] {
		if nd.rec.M.Extra.Get("cluster.member.alive").Load() > 0 {
			promoted = true
		}
	}
	if !promoted {
		t.Error("no membership lifecycle counters recorded")
	}
}

func TestFailureDetectionSuspectThenDead(t *testing.T) {
	nodes := formCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	// Kill node 3 (stop ticking it, tear the transport down).
	c.cl.Close()
	tickUntil(t, func() bool {
		return a.cl.State(3) == StateDead && b.cl.State(3) == StateDead
	}, a, b)
	// The detector passed through suspect before dead.
	if a.rec.M.Extra.Get("cluster.member.suspect").Load() == 0 {
		t.Error("node went dead without a suspect window")
	}
	// Opening toward the dead node still succeeds at the origin — it
	// detours via node 2 in case 2 can reach 3 — but 2 refuses the relay
	// (next hop dead) and the flow dies silently, never an unchecked
	// shortcut. The origin cannot tell; only 2's counters show the refusal.
	if _, err := a.cl.Open(a.user, 3, difc.Labels{}); err != nil {
		t.Fatalf("detour open = %v, want silent-drop success", err)
	}
	tickUntil(t, func() bool {
		return b.rec.M.Extra.Get("cluster.route.nohop").Load() > 0
	}, a, b)
	// With EVERY possible intermediary gone too, the origin has no route.
	b.cl.Close()
	tickUntil(t, func() bool { return a.cl.State(2) == StateDead }, a)
	if _, err := a.cl.Open(a.user, 3, difc.Labels{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("open with no alive members = %v, want ErrNoRoute", err)
	}
}

func TestStaleEpochRejectedFailClosed(t *testing.T) {
	a := bootCluster(t, Config{ID: 1})
	// Node 9 speaks at epoch 5...
	a.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: 9, Epoch: 5, Addr: "127.0.0.1:1"}))
	if got := a.cl.Members()[1].Epoch; got != 5 {
		t.Fatalf("member epoch = %d, want 5", got)
	}
	var detail string
	unsub := a.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Op == "stale-epoch" {
			detail = e.Detail
		}
	})
	defer unsub()
	// ...then a ghost of epoch 3 shows up: rejected, with provenance.
	a.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: 9, Epoch: 3, Addr: "127.0.0.1:2"}))
	if n := a.rec.M.Extra.Get("cluster.epoch.stale").Load(); n != 1 {
		t.Fatalf("stale-epoch counter = %d, want 1", n)
	}
	if !strings.Contains(detail, "node 9") || !strings.Contains(detail, "epoch 3") {
		t.Errorf("stale-epoch provenance %q lacks node/epoch", detail)
	}
	// The stale ping must not have touched the member table.
	if got := a.cl.Members()[1]; got.Epoch != 5 || got.Addr != "127.0.0.1:1" {
		t.Errorf("stale frame mutated member: %+v", got)
	}
}

// TestReincarnationRejectsStaleRoutedOpen: a peer's higher epoch is a
// reincarnation the member table records, after which a routed open
// still stamped with the old origin epoch is dropped fail-closed with
// provenance, and an unparseable route blob is dropped too.
func TestReincarnationRejectsStaleRoutedOpen(t *testing.T) {
	a := bootCluster(t, Config{ID: 1})
	a.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: 7, Epoch: 2, Addr: "127.0.0.1:1"}))
	// The peer reincarnates: its epoch-3 ping advances the member.
	a.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: 7, Epoch: 3, Addr: "127.0.0.1:1"}))
	if got := a.cl.Members()[1]; got.ID != 7 || got.Epoch != 3 {
		t.Fatalf("member after reincarnation = %+v, want node 7 at epoch 3", got)
	}

	var ops []string
	unsub := a.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Site == "cluster.route" {
			ops = append(ops, e.Op)
		}
	})
	defer unsub()

	// A routed open from the epoch-2 ghost: dropped before any relay or
	// delivery decision, with stale-epoch provenance.
	stale := fakeRoutedOffer(a, 7, difc.Labels{})
	stale.Meta = encodeRoute(routeMeta{Origin: 7, OriginEpoch: 2})
	if got := a.cl.onRouted(stale); got != netlabel.RoutedDrop {
		t.Fatalf("stale-epoch routed open = %v, want RoutedDrop", got)
	}
	if n := a.rec.M.Extra.Get("cluster.epoch.stale").Load(); n != 1 {
		t.Fatalf("stale-epoch counter = %d, want 1", n)
	}
	// The current incarnation's open is delivered.
	if got := a.cl.onRouted(fakeRoutedOffer(a, 7, difc.Labels{})); got != netlabel.RoutedDeliver {
		t.Fatalf("current-epoch routed open = %v, want RoutedDeliver", got)
	}
	// A truncated route blob never reaches the epoch check.
	bad := fakeRoutedOffer(a, 7, difc.Labels{})
	bad.Meta = bad.Meta[:len(bad.Meta)-1]
	if got := a.cl.onRouted(bad); got != netlabel.RoutedDrop {
		t.Fatalf("malformed route blob = %v, want RoutedDrop", got)
	}
	if want := []string{"stale-epoch", "meta"}; strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Errorf("cluster.route provenance = %v, want %v", ops, want)
	}
}

func TestIncarnationEpochBumpsAcrossRestart(t *testing.T) {
	store := NewMemStore()
	a := bootCluster(t, Config{ID: 1, Store: store})
	e1 := a.cl.Epoch()
	a.cl.Close()
	b := bootCluster(t, Config{ID: 1, Store: store})
	if e2 := b.cl.Epoch(); e2 <= e1 {
		t.Fatalf("restart epoch %d, want > %d", e2, e1)
	}
}

func TestJoinKilledMidChangeResumes(t *testing.T) {
	seedNode := bootCluster(t, Config{ID: 1})
	if _, err := seedNode.cl.Join(); err != nil {
		t.Fatal(err)
	}
	seed := seedNode.cl.Addr()

	store := NewMemStore() // survives the kill: the harness owns it
	n2 := bootCluster(t, Config{ID: 2, Seeds: []string{seed}, Store: store})
	ch, err := n2.cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	// Tick ONLY node 2: the seed never answers, so the announce step stays
	// in flight — and then the node dies mid-change.
	for i := 0; i < 4; i++ {
		n2.cl.Tick()
	}
	if got, _ := n2.cl.Change(ch.ID); got.Status != StatusDoing {
		t.Fatalf("pre-kill change status = %v, want doing", got.Status)
	}
	n2.cl.Close()

	// Restart with the SAME durable store: the change record resumes at
	// the step that was in flight and the join completes once the seed
	// finally answers.
	var resumed bool
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	unsub := rec.Subscribe(func(e telemetry.Event) {
		if e.Site == "cluster.change" && strings.Contains(e.Detail, "resumed") {
			resumed = true
		}
	})
	defer unsub()
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	c2 := New(Config{ID: 2, Kernel: k, Module: mod, Recorder: rec, Seeds: []string{seed}, Store: store})
	if err := c2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if !resumed {
		t.Fatal("persisted change was not resumed on restart")
	}
	got, ok := c2.Change(ch.ID)
	if !ok || got.Kind != "join" {
		t.Fatalf("resumed change lost: %+v ok=%v", got, ok)
	}
	n2b := &testClusterNode{k: k, mod: mod, rec: rec, cl: c2}
	tickUntil(t, func() bool {
		g, _ := c2.Change(ch.ID)
		return g != nil && g.Status == StatusDone && c2.Joined()
	}, seedNode, n2b)
}

func TestQuarantinedChangeAbandonedFailClosed(t *testing.T) {
	store := NewMemStore()
	// Both the commit and its shadow are garbage: progress unknowable.
	store.Set("chg/5", []byte("torn beyond hope"))
	store.Set("chg/5#shadow", []byte("also torn"))
	a := bootCluster(t, Config{ID: 1, Store: store})
	if n := len(a.cl.Changes()); n != 0 {
		t.Fatalf("quarantined change was adopted: %d changes", n)
	}
	if n := a.rec.M.Extra.Get("cluster.recovery.quarantined").Load(); n != 1 {
		t.Errorf("recovery counter = %d, want 1 quarantined", n)
	}
	if _, ok := store.Get("chg/5"); ok {
		t.Error("quarantined record left in store")
	}
	if a.cl.Joined() {
		t.Error("node joined off a quarantined record")
	}
}

func TestRoutedFlowRelaysWithPerHopChecks(t *testing.T) {
	nodes := formCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// A public channel A --via B--> C.
	fdA, err := a.cl.OpenVia(a.user, 2, 3, difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	var fdC kernel.FD
	tickUntil(t, func() bool {
		var aerr error
		fdC, _, aerr = c.cl.Node().Accept(c.user)
		return aerr == nil
	}, a, b, c)
	if _, err := a.k.Send(a.user, fdA, []byte("two hops")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var got string
	tickUntil(t, func() bool {
		n, rerr := c.k.Recv(c.user, fdC, buf)
		if rerr == nil && n > 0 {
			got += string(buf[:n])
		}
		return got == "two hops"
	}, a, b, c)
	if b.rec.M.Extra.Get("cluster.route.relayed").Load() == 0 {
		t.Error("intermediate hop recorded no relay")
	}
}

func TestRelayHopDeniedByItsOwnLSM(t *testing.T) {
	nodes := formCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// A secret channel through B. A's user holds the tag capabilities, so
	// the origin create passes; B's relay runs ADOPTED at the channel
	// labels, so forwarding normally passes its LSM too.
	tag, err := a.k.AllocTag(a.user)
	if err != nil {
		t.Fatal(err)
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}
	fdA, err := a.cl.OpenVia(a.user, 2, 3, secret)
	if err != nil {
		t.Fatal(err)
	}
	tickUntil(t, func() bool {
		b.cl.mu.Lock()
		n := len(b.cl.relays)
		b.cl.mu.Unlock()
		return n == 1
	}, a, b, c)

	// Sabotage the hop: strip the relay task's labels. Its Recv from the
	// secret-labeled inbound endpoint is now a secrecy violation that B's
	// OWN kernel must deny — per-hop enforcement is the syscall check, not
	// the routing code.
	b.cl.mu.Lock()
	relayTask := b.cl.relays[0].task
	b.cl.mu.Unlock()
	b.mod.AdoptTaskLabels(relayTask, difc.Labels{})

	if _, err := a.k.Send(a.user, fdA, []byte("classified")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) &&
		b.rec.M.Extra.Get("cluster.relay.recv-denied").Load() == 0 {
		for _, nd := range nodes {
			nd.cl.Tick()
		}
	}
	if b.rec.M.Extra.Get("cluster.relay.recv-denied").Load() == 0 {
		t.Fatal("stripped relay was not denied by the hop's LSM")
	}
	// And nothing ever reaches C.
	if fdC, _, err := c.cl.Node().Accept(c.user); err == nil {
		if n, rerr := c.k.Recv(c.user, fdC, make([]byte, 32)); rerr == nil {
			t.Fatalf("classified bytes crossed a denied hop: %d bytes", n)
		}
	}
}

// fakeRoutedOffer fabricates an inbound routed open from origin at its
// current tracked epoch, destined for this node.
func fakeRoutedOffer(nd *testClusterNode, origin uint64, labels difc.Labels) netlabel.RoutedOffer {
	var epoch uint64
	for _, m := range nd.cl.Members() {
		if m.ID == origin {
			epoch = m.Epoch
		}
	}
	file := nd.k.NetSocketAdopted(func(ino *kernel.Inode) {
		nd.mod.AdoptInodeLabels(ino, labels)
	})
	return netlabel.RoutedOffer{
		PeerID: origin,
		Labels: labels,
		Meta:   encodeRoute(routeMeta{Origin: origin, OriginEpoch: epoch}),
		File:   file,
	}
}

func TestDrainStopsIntakeAndAnnouncesDeparture(t *testing.T) {
	nodes := formCluster(t, 2)
	a, b := nodes[0], nodes[1]
	ch, err := b.cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	tickUntil(t, func() bool {
		g, _ := b.cl.Change(ch.ID)
		return g != nil && g.Status == StatusDone && a.cl.State(2) == StateDead
	}, a, b)
	// New routed work toward the drained node is refused at its door.
	before := b.rec.M.Extra.Get("cluster.route.draining").Load()
	b.cl.onRouted(fakeRoutedOffer(b, 1, difc.Labels{}))
	if b.rec.M.Extra.Get("cluster.route.draining").Load() != before+1 {
		t.Error("drained node accepted routed work")
	}
}
