package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// memberState reads the tracked state of peer id; StateDead for ids
// never heard of.
func memberState(c *Cluster, id uint64) MemberState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok {
		return m.state
	}
	return StateDead
}

// memberEntry copies peer id's entry from the member table; the zero
// member for ids never heard of.
func memberEntry(c *Cluster, id uint64) member {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok {
		return *m
	}
	return member{}
}

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
	return formClusterWindow(t, n, 0, 0)
}

// formClusterWindow is formCluster with the detector thresholds given
// (zero takes the defaults).
func formClusterWindow(t *testing.T, n, suspectAfter, deadAfter int) []*testClusterNode {
	t.Helper()
	nodes := []*testClusterNode{bootCluster(t, Config{ID: 1, SuspectAfter: suspectAfter, DeadAfter: deadAfter})}
	if _, err := nodes[0].cl.Join(); err != nil {
		t.Fatal(err)
	}
	seed := nodes[0].cl.Addr()
	ids := []uint64{1}
	for i := 2; i <= n; i++ {
		nd := bootCluster(t, Config{ID: uint64(i), Seeds: []string{seed},
			SuspectAfter: suspectAfter, DeadAfter: deadAfter})
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
		return memberState(a.cl, 3) == StateDead && memberState(b.cl, 3) == StateDead
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
	tickUntil(t, func() bool { return memberState(a.cl, 2) == StateDead }, a)
	if _, err := a.cl.Open(a.user, 3, difc.Labels{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("open with no alive members = %v, want ErrNoRoute", err)
	}
}

// TestMutualFalseDeathHealsThroughGossip leaves nodes 2 and 3 holding
// each other dead while both still hear node 1 — the state a stalled
// tick loop leaves behind when their heartbeats to each other are late
// past DeadAfter. Heartbeats skip the dead, so neither would speak to the
// other again; only node 1's gossip ("alive, heard directly") can reopen
// the pair, and the cluster must converge again through suspect.
func TestMutualFalseDeathHealsThroughGossip(t *testing.T) {
	nodes := formCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	split := func() {
		for _, p := range []struct {
			nd   *testClusterNode
			peer uint64
		}{{b, 3}, {c, 2}} {
			p.nd.cl.mu.Lock()
			p.nd.cl.members[p.peer].state = StateDead
			p.nd.cl.mu.Unlock()
		}
	}
	// Hold the split while 2 and 3 tick without node 1, until no frame
	// between them is left in flight: from then on neither sends to the
	// other, and nothing but gossip can tell either that the other lives.
	for i := 0; i < 8; i++ {
		split()
		b.cl.Tick()
		c.cl.Tick()
		time.Sleep(time.Millisecond)
	}
	split()
	suspects := func() uint64 {
		return b.rec.M.Extra.Get("cluster.member.suspect").Load() +
			c.rec.M.Extra.Get("cluster.member.suspect").Load()
	}
	before := suspects()
	tickUntil(t, func() bool {
		for _, nd := range nodes {
			if !nd.cl.Converged(1, 2, 3) {
				return false
			}
		}
		return true
	}, a, b, c)
	if suspects() == before {
		t.Error("dead pair healed without passing through suspect")
	}
}

func TestStaleEpochRejectedFailClosed(t *testing.T) {
	a := bootCluster(t, Config{ID: 1})
	// Node 9 speaks at epoch 5...
	a.cl.onControl(0, encodeCtrl(ctrlMsg{Type: msgPing, From: 9, Epoch: 5, Addr: "127.0.0.1:1"}))
	if got := memberEntry(a.cl, 9).epoch; got != 5 {
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
	if got := memberEntry(a.cl, 9); got.epoch != 5 || got.addr != "127.0.0.1:1" {
		t.Errorf("stale frame mutated member: epoch %d addr %q", got.epoch, got.addr)
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
	if got := memberEntry(a.cl, 7); got.id != 7 || got.epoch != 3 {
		t.Fatalf("member after reincarnation = node %d at epoch %d, want node 7 at epoch 3", got.id, got.epoch)
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
	store := durable.NewMemStore()
	a := bootCluster(t, Config{ID: 1, Store: store})
	e1 := a.cl.Epoch()
	a.cl.Close()
	b := bootCluster(t, Config{ID: 1, Store: store})
	if e2 := b.cl.Epoch(); e2 <= e1 {
		t.Fatalf("restart epoch %d, want > %d", e2, e1)
	}
}

// TestTornEpochQuarantinesFarAhead tears the persisted incarnation
// epoch: its value is unknowable, so the restart must not guess a small
// one a peer may already have seen. It jumps 2^20 ahead instead and
// counts the quarantine.
func TestTornEpochQuarantinesFarAhead(t *testing.T) {
	store := durable.NewMemStore()
	a := bootCluster(t, Config{ID: 1, Store: store})
	prev := a.cl.Epoch()
	a.cl.Close()
	rec, ok := store.Get(epochKey)
	if !ok {
		t.Fatal("no epoch record persisted")
	}
	store.Set(epochKey, rec[:len(rec)/2])
	b := bootCluster(t, Config{ID: 1, Store: store})
	if got, floor := b.cl.Epoch(), uint64(1<<20+1); got < floor || got <= prev {
		t.Fatalf("epoch after a torn record = %d, want >= %d and > %d", got, floor, prev)
	}
	if n := b.rec.M.Extra.Get("cluster.epoch.quarantined").Load(); n != 1 {
		t.Fatalf("cluster.epoch.quarantined = %d, want 1", n)
	}
	if n := b.rec.M.Extra.Get("cluster.recovery.quarantined").Load(); n != 0 {
		t.Fatalf("a torn epoch counted %d change quarantines, want 0", n)
	}
}

// TestEpochMonotoneUnderRepeatedTears boots one node over one store
// again and again, tearing records between boots, and requires every
// boot's epoch to be strictly greater than the last. The fixed sequence
// tears the epoch record before boots 2 and 4: a second quarantine must
// resume past the epochs issued since the first, not restart at the
// same far-ahead value. The enumeration then tries every pattern of
// torn epoch and torn floor records over five boots.
func TestEpochMonotoneUnderRepeatedTears(t *testing.T) {
	boot := func(store *durable.MemStore) uint64 {
		mod := lsm.New()
		k := kernel.New(kernel.WithSecurityModule(mod))
		c := New(Config{ID: 1, Kernel: k, Module: mod, Store: store})
		defer c.Close()
		return c.Epoch()
	}
	tear := func(store *durable.MemStore, key string) {
		if rec, ok := store.Get(key); ok {
			store.Set(key, rec[:len(rec)/2])
		}
	}
	run := func(tears []int) []uint64 {
		store := durable.NewMemStore()
		var epochs []uint64
		for i := 0; i <= len(tears); i++ {
			if i > 0 {
				switch tears[i-1] {
				case 1:
					tear(store, epochKey)
				case 2:
					tear(store, epochFloorKey)
				}
			}
			epochs = append(epochs, boot(store))
		}
		return epochs
	}
	increasing := func(epochs []uint64) bool {
		for i := 1; i < len(epochs); i++ {
			if epochs[i] <= epochs[i-1] {
				return false
			}
		}
		return true
	}

	if got := run([]int{1, 0, 1, 0}); !increasing(got) {
		t.Fatalf("epochs with tears before boots 2 and 4 = %v, want strictly increasing", got)
	}
	tears := make([]int, 4)
	for pattern := 0; pattern < 81; pattern++ {
		for i, p := 0, pattern; i < len(tears); i, p = i+1, p/3 {
			tears[i] = p % 3
		}
		if got := run(tears); !increasing(got) {
			t.Fatalf("epochs with tears %v (1 epoch, 2 floor) = %v, want strictly increasing", tears, got)
		}
	}
}

func TestJoinKilledMidChangeResumes(t *testing.T) {
	seedNode := bootCluster(t, Config{ID: 1})
	if _, err := seedNode.cl.Join(); err != nil {
		t.Fatal(err)
	}
	seed := seedNode.cl.Addr()

	store := durable.NewMemStore() // survives the kill: the harness owns it
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
	n2.cl.mu.Lock()
	status := n2.cl.changes[ch.ID].Status
	n2.cl.mu.Unlock()
	if status != StatusDoing {
		t.Fatalf("pre-kill change status = %v, want doing", status)
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
	c2.mu.Lock()
	got, ok := c2.changes[ch.ID]
	c2.mu.Unlock()
	if !ok || got.Kind != "join" {
		t.Fatalf("resumed change lost: %+v ok=%v", got, ok)
	}
	n2b := &testClusterNode{k: k, mod: mod, rec: rec, cl: c2}
	tickUntil(t, func() bool {
		c2.mu.Lock()
		done := c2.changes[ch.ID].Status == StatusDone
		c2.mu.Unlock()
		return done && c2.Joined()
	}, seedNode, n2b)
}

func TestQuarantinedChangeAbandonedFailClosed(t *testing.T) {
	store := durable.NewMemStore()
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
	epoch := memberEntry(nd.cl, origin).epoch
	file := nd.k.NetSocketAdopted(func(ino *kernel.Inode) {
		nd.mod.AdoptInodeLabels(ino, labels)
	})
	return netlabel.RoutedOffer{
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
		b.cl.mu.Lock()
		done := b.cl.changes[ch.ID].Status == StatusDone
		b.cl.mu.Unlock()
		return done && memberState(a.cl, 2) == StateDead
	}, a, b)
	// New routed work toward the drained node is refused at its door.
	before := b.rec.M.Extra.Get("cluster.route.draining").Load()
	b.cl.onRouted(fakeRoutedOffer(b, 1, difc.Labels{}))
	if b.rec.M.Extra.Get("cluster.route.draining").Load() != before+1 {
		t.Error("drained node accepted routed work")
	}
}
