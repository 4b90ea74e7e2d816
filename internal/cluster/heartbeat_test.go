package cluster

import (
	"strings"
	"testing"
	"time"

	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// TestHeartbeatFollowsDetectorWindow: with a detector window far longer
// than the tick loop needs, a three-node cluster still converges, sees
// no detector transition over thousands of ticks, and sends far fewer
// frames than the heartbeat alone would at the default thresholds —
// where every node pings both peers every heartbeatEvery ticks.
func TestHeartbeatFollowsDetectorWindow(t *testing.T) {
	const ticks = 4000
	nodes := formClusterWindow(t, 3, 1<<20, 1<<21)
	transitions := func() uint64 {
		var n uint64
		for _, nd := range nodes {
			n += nd.rec.M.Extra.Get("cluster.member.suspect").Load()
			n += nd.rec.M.Extra.Get("cluster.member.dead").Load()
		}
		return n
	}
	frames := func() uint64 {
		var n uint64
		for _, nd := range nodes {
			n += nd.rec.M.Extra.Get("net.tx.frames").Load()
		}
		return n
	}
	trans0, frames0 := transitions(), frames()
	for i := 0; i < ticks; i++ {
		for _, nd := range nodes {
			nd.cl.Tick()
		}
	}
	if d := transitions() - trans0; d != 0 {
		t.Errorf("%d detector transitions over %d ticks of a converged cluster, want 0", d, ticks)
	}
	for _, nd := range nodes {
		if !nd.cl.Converged(1, 2, 3) {
			t.Errorf("node %d lost convergence: %+v", nd.cl.cfg.ID, nd.cl.Members())
		}
	}
	sent := frames() - frames0
	pingsAtDefaults := uint64(len(nodes) * (len(nodes) - 1) * ticks / heartbeatEvery)
	t.Logf("%d frames over %d ticks; the default heartbeat alone sends %d", sent, ticks, pingsAtDefaults)
	if sent*3 > pingsAtDefaults {
		t.Errorf("sent %d frames over %d ticks, want at most a third of the %d default pings",
			sent, ticks, pingsAtDefaults)
	}
}

// TestHeartbeatTargets pins who a heartbeat pings: every suspect each
// time, alive members only on alive-ping ticks or when their last ping
// did not list us alive. At the default thresholds every heartbeat pings
// every member not yet declared dead, as before the period was scaled.
func TestHeartbeatTargets(t *testing.T) {
	for _, c := range []struct {
		name         string
		suspectAfter int
		every        uint64
	}{
		{"defaults", 0, heartbeatEvery},
		{"seven ticks", 7, heartbeatEvery},
		{"ten ticks", 10, 2 * heartbeatEvery},
		{"fourteen ticks", 14, 2 * heartbeatEvery},
		{"large", 1 << 30, 429496728}, // 2^31/5 rounded down to even
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := bootCluster(t, Config{ID: 1, SuspectAfter: c.suspectAfter}).cl
			if cl.alivePingEvery != c.every {
				t.Fatalf("alivePingEvery = %d, want %d", cl.alivePingEvery, c.every)
			}
			cl.mu.Lock()
			defer cl.mu.Unlock()
			cl.members[2] = &member{id: 2, addr: "b", state: StateAlive}
			cl.members[3] = &member{id: 3, addr: "c", state: StateSuspect}
			cl.members[4] = &member{id: 4, addr: "d", state: StateDead}
			cl.now = heartbeatEvery
			want := "c"
			if c.every == heartbeatEvery {
				want = "b c"
			}
			if got := strings.Join(cl.heartbeatTargets(), " "); got != want {
				t.Fatalf("targets = %q, want %q", got, want)
			}
			// Member 2 pings us while holding us suspect: the next
			// heartbeat answers it, once.
			cl.answerSuspicion(cl.members[2], []memberWire{
				{ID: 2, State: StateAlive}, {ID: 1, State: StateSuspect}})
			if got := strings.Join(cl.heartbeatTargets(), " "); got != "b c" {
				t.Fatalf("targets owing member 2 a ping = %q, want \"b c\"", got)
			}
			if got := strings.Join(cl.heartbeatTargets(), " "); got != want {
				t.Fatalf("targets after answering = %q, want %q", got, want)
			}
			cl.now = cl.alivePingEvery
			if got := strings.Join(cl.heartbeatTargets(), " "); got != "b c" {
				t.Fatalf("targets on an alive-ping tick = %q, want \"b c\"", got)
			}
		})
	}
}

// TestStaggeredJoinConvergesWithLongWindow: node 3 joins a settled
// two-node cluster whose detector window is far longer than the run. It
// learns node 2 by gossip, as a suspect, and pings it; node 2 hears that
// ping directly and holds node 3 alive, so only its alive-ping schedule
// would ever speak to node 3. Answering the suspicion a ping carries is
// what converges them. The nodes run without a recorder, so no stats
// broadcast (the other frame that reaches alive members) can stand in.
func TestStaggeredJoinConvergesWithLongWindow(t *testing.T) {
	boot := func(cfg Config) *Cluster {
		mod := lsm.New()
		k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithoutTelemetry())
		mod.InstallSystemIntegrity(k)
		cfg.Kernel, cfg.Module = k, mod
		cfg.SuspectAfter, cfg.DeadAfter = 1<<20, 1<<21
		c := New(cfg)
		if err := c.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.Join(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	tick := func(what string, cond func() bool, nodes ...*Cluster) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				for _, c := range nodes {
					t.Logf("node %d: %+v", c.cfg.ID, c.Members())
				}
				t.Fatalf("%s: not converged", what)
			}
			for _, c := range nodes {
				c.Tick()
			}
			time.Sleep(time.Millisecond)
		}
	}
	a := boot(Config{ID: 1})
	b := boot(Config{ID: 2, Seeds: []string{a.Addr()}})
	tick("two nodes", func() bool { return a.Converged(2) && b.Converged(1) }, a, b)
	c := boot(Config{ID: 3, Seeds: []string{a.Addr()}})
	tick("staggered third node", func() bool {
		return a.Converged(1, 2, 3) && b.Converged(1, 2, 3) && c.Converged(1, 2, 3)
	}, a, b, c)
}
