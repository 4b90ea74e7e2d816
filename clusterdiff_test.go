package laminar_test

// N-node differential oracle for the cluster label plane: the scripted
// two-principal flow of netdiff_test.go is run across a THREE-node
// cluster — the channels routed A → (relay at B) → C, with membership,
// heartbeats, incarnation epochs and the change engine all live, and
// chaos injected at the transport and checkpoint sites — and its
// kernel/LSM verdict stream must be byte-identical to the in-process
// single-kernel replay.
//
// Why this must hold, one layer up from netdiff: routing, membership and
// crash-resumable changes are all CLUSTER machinery, and cluster
// machinery is transport in the paper's sense — it may lose any message
// (the unreliable channel) but never bypass a check. Every policy
// verdict still fires on an endpoint the acting task's own kernel owns,
// including the relay hop's adopted Recv/Send at B, which are ALLOWED
// flows and therefore invisible at LevelDeny. So: kill a node mid-join,
// resume its persisted change on restart under a fresh incarnation
// epoch, refuse its stale frames, reroute around its suspect window —
// the DELIVERIES change, the VERDICTS cannot. LayerNet and LayerCluster
// events are exactly the fault-dependent residue, and are excluded by
// the verdict filter. Zero deliveries happen unchecked during suspect
// windows because delivery itself is a checked Recv — there is no
// unchecked path for the filter to miss.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// clusterdiffCkptRates tears change checkpoints now and then: the engine
// must retry the durable write before any further step transition, and
// none of it may surface as a policy verdict.
var clusterdiffCkptRates = faultinject.Rates{Error: 0.05}

// clusterdiffNode is one member: a booted stack plus its cluster node
// and durable store (the store survives simulated kills).
type clusterdiffNode struct {
	stack *netdiffStack
	cl    *cluster.Cluster
	store durable.Store
}

// clusterdiffBoot attaches a cluster node to a fresh stack. The store is
// the node's durable identity: passing the same store after a kill is
// the restart of the same member (epoch bumped, changes resumed).
func clusterdiffBoot(t *testing.T, bigLock bool, id uint64, seeds []string,
	store durable.Store, seed int64, log *verdictLog) *clusterdiffNode {
	t.Helper()
	s := netdiffBoot(t, bigLock)
	plan := faultinject.NewPlan(seed + int64(id)*7919)
	plan.SetRates("net.", netdiffRates)
	plan.SetRates("cluster.ckpt.", clusterdiffCkptRates)
	// Tracing on: the cluster oracle doubles as the trace covert-channel
	// oracle one layer up — per-hop trace propagation across routed
	// relays must leave the verdict stream byte-identical to the
	// untraced in-process replay.
	cl := cluster.New(cluster.Config{
		ID: id, Kernel: s.k, Module: s.mod, Recorder: s.rec,
		Injector: plan, Store: store, Seeds: seeds, Tracing: true,
	})
	if err := cl.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	log.attach(s.rec)
	return &clusterdiffNode{stack: s, cl: cl, store: store}
}

// clusterdiffRemote runs the script across a 3-node cluster with routed
// channels and seeded chaos, returning the verdict stream and t1. Seeds
// divisible by 3 additionally kill node 3 mid-join and restart it from
// its persisted store — the resumed change must complete under the new
// incarnation epoch.
func clusterdiffRemote(t *testing.T, seed int64, bigLock bool) (string, difc.Tag) {
	t.Helper()
	log := &verdictLog{}

	n1 := clusterdiffBoot(t, bigLock, 1, nil, durable.NewMemStore(), seed, log)
	defer n1.cl.Close()
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	seeds := []string{n1.cl.Addr()}
	n2 := clusterdiffBoot(t, bigLock, 2, seeds, durable.NewMemStore(), seed, log)
	defer n2.cl.Close()
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	store3 := durable.NewMemStore()
	n3 := clusterdiffBoot(t, bigLock, 3, seeds, store3, seed, log)
	if _, err := n3.cl.Join(); err != nil {
		t.Fatal(err)
	}

	if seed%3 == 0 {
		// Chaos: node 3 dies mid-join — at most a tick or two into the
		// change, long before convergence — and restarts from its store.
		// The persisted join change resumes at the in-flight step, the
		// epoch bumps, and peers discard the dead incarnation's state.
		n3.cl.Tick()
		n3.cl.Close()
		n3 = clusterdiffBoot(t, bigLock, 3, seeds, store3, seed+104729, log)
		if len(n3.cl.Changes()) == 0 {
			t.Fatal("killed node restarted with no resumed change")
		}
	}
	defer func() { n3.cl.Close() }()

	nodes := func() []*clusterdiffNode { return []*clusterdiffNode{n1, n2, n3} }
	tickAll := func() {
		for _, n := range nodes() {
			n.cl.Tick()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !(n1.cl.Converged(1, 2, 3) && n2.cl.Converged(1, 2, 3) && n3.cl.Converged(1, 2, 3) &&
		n1.cl.Joined() && n2.cl.Joined() && n3.cl.Joined()) {
		if !time.Now().Before(deadline) {
			t.Fatalf("seed %d: cluster never converged", seed)
		}
		tickAll()
	}

	t1, err := n1.stack.k.AllocTag(n1.stack.user)
	if err != nil {
		t.Fatal(err)
	}

	// establish opens a ROUTED channel A→B→C and ticks until C holds the
	// far end, re-opening when chaos ate a leg. Retries and relay setup
	// emit no policy verdicts (creates and adopted hops are allowed), so
	// the faulted establishment is invisible to the oracle.
	establish := func(labels difc.Labels) (kernel.FD, kernel.FD) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			fd, oerr := n1.cl.OpenVia(n1.stack.user, 2, 3, labels)
			if oerr != nil {
				tickAll()
				continue // route down this instant; try again
			}
			for i := 0; i < 400; i++ {
				tickAll()
				fdC, got, aerr := n3.cl.Node().Accept(n3.stack.user)
				if aerr == nil {
					if got.Equal(labels) {
						return fd, fdC
					}
					continue // stale duplicate from an earlier lost open
				}
			}
		}
		t.Fatalf("seed %d: routed channel %v never established", seed, labels)
		return -1, -1
	}

	pubA, pubC := establish(difc.Labels{})
	secA, secC := establish(difc.Labels{S: difc.NewLabel(t1)})

	netdiffOps(t, n1.stack.k, n3.stack.k, n1.stack.user, n3.stack.user,
		pubA, pubC, secA, secC, t1)

	// Let membership, relays and late link faults churn: none of it may
	// append to the captured verdict stream.
	for i := 0; i < 50; i++ {
		tickAll()
	}
	return log.dump(), t1
}

// TestClusterDifferentialOracle: 30 seeds of cluster chaos (link faults,
// torn checkpoints, and on every third seed a mid-join node kill with
// persisted-change resume and a forced re-epoch) × both locking
// disciplines; every cluster verdict stream must equal the in-process
// single-kernel replay byte for byte.
func TestClusterDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster oracle is long; skipped in -short")
	}
	for _, mode := range []struct {
		name    string
		bigLock bool
	}{{"sharded", false}, {"biglock", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			want, wantT1 := netdiffReplay(t, mode.bigLock)
			if want == "" {
				t.Fatal("replay produced no verdicts; the oracle is vacuous")
			}
			if n := len(strings.Split(want, "\n")); n < 4 {
				t.Fatalf("replay produced only %d verdicts", n)
			}
			for seed := int64(1); seed <= 30; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					got, gotT1 := clusterdiffRemote(t, seed, mode.bigLock)
					if gotT1 != wantT1 {
						t.Fatalf("tag allocation diverged: cluster t1=%d, replay t1=%d", gotT1, wantT1)
					}
					if got != want {
						t.Errorf("verdict stream diverged from in-process replay\n--- cluster (seed %d)\n%s\n--- replay\n%s", seed, got, want)
					}
				})
			}
		})
	}
}

// TestClusterOracleEpochRejectInvisible pins the epoch machinery's
// fail-closed side against the oracle property: a stale-incarnation
// frame is rejected with LayerCluster provenance, and that rejection
// never surfaces in the kernel/LSM verdict stream the oracle compares.
func TestClusterOracleEpochRejectInvisible(t *testing.T) {
	log := &verdictLog{}
	n1 := clusterdiffBoot(t, false, 1, nil, durable.NewMemStore(), 5, log)
	defer n1.cl.Close()
	if _, err := n1.cl.Join(); err != nil {
		t.Fatal(err)
	}
	store := durable.NewMemStore()
	n2 := clusterdiffBoot(t, false, 2, []string{n1.cl.Addr()}, store, 5, log)
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for !(n1.cl.Converged(1, 2) && n2.cl.Joined()) {
		if !time.Now().Before(deadline) {
			t.Fatal("never converged")
		}
		n1.cl.Tick()
		n2.cl.Tick()
	}
	oldEpoch := n2.cl.Epoch()

	// Node 2 reincarnates; node 1 must learn the new epoch and then
	// reject anything still stamped with the old one.
	n2.cl.Close()
	// Node 1 records a new incarnation with a re-epoch member event.
	var reEpochs []string
	unsubEpoch := n1.stack.rec.Subscribe(func(e telemetry.Event) {
		if e.Site == "cluster.member" && e.Op == "re-epoch" {
			reEpochs = append(reEpochs, e.Detail)
		}
	})
	defer unsubEpoch()
	n2 = clusterdiffBoot(t, false, 2, []string{n1.cl.Addr()}, store, 6, log)
	defer n2.cl.Close()
	if n2.cl.Epoch() <= oldEpoch {
		t.Fatalf("restart epoch %d, want > %d", n2.cl.Epoch(), oldEpoch)
	}
	var stale int
	unsub := n1.stack.rec.Subscribe(func(e telemetry.Event) {
		if e.Layer == telemetry.LayerCluster && e.Op == "stale-epoch" {
			stale++
		}
	})
	defer unsub()
	if _, err := n2.cl.Join(); err != nil {
		t.Fatal(err)
	}
	// Converged and Joined alone can hold before node 1 has heard the new
	// incarnation: node 1 still lists the old one alive, and node 2 may
	// finish its previous join from the store without a round trip. So
	// also wait for node 1 to record the new epoch.
	learned := func() bool {
		want := fmt.Sprintf("node 2 epoch %d:", n2.cl.Epoch())
		for _, d := range reEpochs {
			if strings.HasPrefix(d, want) {
				return true
			}
		}
		return false
	}
	deadline = time.Now().Add(20 * time.Second)
	for !(n1.cl.Converged(1, 2) && n2.cl.Joined() && learned()) {
		if !time.Now().Before(deadline) {
			t.Fatal("never reconverged after re-epoch")
		}
		n1.cl.Tick()
		n2.cl.Tick()
	}
	// Replay the ghost: a control frame from node 2's DEAD incarnation.
	n1.cl.InjectStaleFrame(2, oldEpoch)
	if stale == 0 {
		t.Fatal("stale-epoch frame was not rejected with provenance")
	}
	if log.dump() != "" {
		t.Fatalf("cluster-layer rejection leaked into the policy verdict stream:\n%s", log.dump())
	}
}
