// Command laminar-netd runs a Laminar kernel attached to the labeled
// network: a netlabel node that exchanges labeled messages with peer
// kernels over TCP, every remote flow checked by the receiving kernel's
// LSM exactly like a local socket operation (DESIGN.md §12).
//
// Modes:
//
//	laminar-netd -smoke
//	    Self-contained two-kernel smoke test over localhost TCP: one
//	    allowed flow must deliver, one denied flow must silently drop
//	    on the receiving kernel with recorded provenance. Exit 0 on
//	    success, 1 on any violated expectation. CI runs this.
//
//	laminar-netd -listen :7609
//	    Daemon: boot a kernel+LSM stack, listen for peer kernels, pump
//	    until interrupted. -echo makes the daemon's own task accept
//	    every channel it may read and echo the bytes back.
//
//	laminar-netd -dial host:7609 -msg 'hello'
//	    Client: boot a kernel, open an unlabeled channel to a daemon,
//	    send the message, and print whatever comes back within -wait.
//
//	laminar-netd -cluster-smoke
//	    Self-contained three-node cluster smoke test: form a cluster
//	    (join changes, heartbeats, failure detection), kill one node,
//	    restart it from the same durable store under a bumped
//	    incarnation epoch, reconverge, and deliver a routed flow through
//	    a fully checked relay hop. Exit 0 on success, 1 on any violated
//	    expectation. CI runs this.
//
//	laminar-netd -trace-smoke [-dumpdir DIR]
//	    Three-node flow-tracing smoke test: route a secrecy-labeled flow
//	    1 → relay at 2 → 3 with tracing on, let node 3's own LSM deny
//	    the final Recv, and reconstruct the hop-by-hop route from the
//	    per-node flight dumps (explain-route), re-running every recorded
//	    check. With -dumpdir the per-node and merged dumps are written
//	    there for laminar-trace to consume. Exit 0/1. CI runs this.
//
//	laminar-netd -cluster-stats
//	    Three-node metrics-aggregation demo: converge, exchange routed
//	    traffic, wait for stats broadcasts to land, kill one node, show
//	    its slice going stale, and print the merged cluster snapshot in
//	    Prometheus text format. Exit 0/1. CI runs this.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// node is one booted kernel+LSM+transport stack with a user task.
type node struct {
	k    *kernel.Kernel
	mod  *lsm.Module
	user *kernel.Task
	rec  *telemetry.Recorder
	nl   *netlabel.Node
}

func bootNode(id uint64, batching bool) (*node, error) {
	return bootNodeAt(id, batching, telemetry.LevelDeny, false)
}

func bootNodeAt(id uint64, batching bool, level telemetry.Level, tracing bool) (*node, error) {
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(level)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, err
	}
	nl := netlabel.NewNode(netlabel.Config{
		Kernel: k, Module: mod, Recorder: rec, NodeID: id, Batching: batching, Tracing: tracing,
	})
	return &node{k: k, mod: mod, user: user, rec: rec, nl: nl}, nil
}

func main() {
	var (
		smoke    = flag.Bool("smoke", false, "two-kernel localhost self test (allowed + denied flow); exit 0/1")
		cSmoke   = flag.Bool("cluster-smoke", false, "three-node cluster self test (join, kill, restart, converge, routed flow); exit 0/1")
		tSmoke   = flag.Bool("trace-smoke", false, "three-node flow-tracing self test (routed denial reconstructed hop by hop); exit 0/1")
		dumpdir  = flag.String("dumpdir", "", "with -trace-smoke: write per-node and merged flight dumps here")
		cStats   = flag.Bool("cluster-stats", false, "three-node metrics-aggregation demo (stats broadcasts, staleness, merged Prometheus output); exit 0/1")
		listen   = flag.String("listen", "", "daemon mode: listen address for peer kernels")
		echo     = flag.Bool("echo", false, "with -listen: echo readable channels back to the peer")
		dial     = flag.String("dial", "", "client mode: peer address to open a channel to")
		msg      = flag.String("msg", "ping from laminar-netd", "with -dial: message to send")
		wait     = flag.Duration("wait", 2*time.Second, "with -dial: how long to wait for a reply")
		batching = flag.Bool("batching", true, "coalesce each flush into one TCP write")
		interval = flag.Duration("interval", time.Millisecond, "pump interval")
	)
	flag.Parse()

	switch {
	case *smoke:
		if err := runSmoke(*batching); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd: SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("laminar-netd: smoke ok — allowed flow delivered, denied flow dropped silently with provenance")
	case *cSmoke:
		if err := runClusterSmoke(*batching); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd: CLUSTER SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("laminar-netd: cluster smoke ok — converged, survived a kill+restart under a new epoch, routed flow relayed with per-hop checks")
	case *tSmoke:
		if err := runTraceSmoke(*batching, *dumpdir); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd: TRACE SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("laminar-netd: trace smoke ok — routed denial reconstructed hop by hop, every recorded check replayed MATCHES")
	case *cStats:
		if err := runClusterStats(*batching); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd: CLUSTER STATS FAIL:", err)
			os.Exit(1)
		}
	case *listen != "":
		if err := runDaemon(*listen, *echo, *batching, *interval); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd:", err)
			os.Exit(1)
		}
	case *dial != "":
		if err := runClient(*dial, *msg, *wait, *batching); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-netd:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSmoke boots two kernels joined over localhost TCP and checks the
// PR's two headline behaviours end to end.
func runSmoke(batching bool) error {
	a, err := bootNode(1, batching)
	if err != nil {
		return err
	}
	b, err := bootNode(2, batching)
	if err != nil {
		return err
	}
	if err := a.nl.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if err := b.nl.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer a.nl.Close()
	defer b.nl.Close()

	pump := func() { a.nl.Pump(); b.nl.Pump() }
	deadline := time.Now().Add(10 * time.Second)

	// Flow 1 (allowed): unlabeled channel, public payload, must deliver.
	pubA, err := a.nl.Open(a.user, b.nl.Addr(), difc.Labels{})
	if err != nil {
		return fmt.Errorf("open public channel: %w", err)
	}
	// Flow 2 (denied): a channel carrying a secrecy tag B's task lacks.
	tag, err := a.k.AllocTag(a.user)
	if err != nil {
		return err
	}
	secA, err := a.nl.Open(a.user, b.nl.Addr(), difc.Labels{S: difc.NewLabel(tag)})
	if err != nil {
		return fmt.Errorf("open secret channel: %w", err)
	}

	var pubB, secB kernel.FD
	var pubL difc.Labels
	got := 0
	for got < 2 {
		pump()
		fd, labels, aerr := b.nl.Accept(b.user)
		if aerr != nil {
			if time.Now().After(deadline) {
				return errors.New("channels never arrived")
			}
			continue
		}
		if labels.IsEmpty() {
			pubB, pubL = fd, labels
		} else {
			secB = fd
		}
		got++
	}
	_ = pubL

	if _, err := a.k.Send(a.user, pubA, []byte("public hello")); err != nil {
		return fmt.Errorf("public send: %w", err)
	}
	if n, err := a.k.Send(a.user, secA, []byte("classified")); err != nil || n != 10 {
		return fmt.Errorf("secret send = %d, %v (sender must see success)", n, err)
	}

	// The allowed flow delivers.
	buf := make([]byte, 64)
	var public string
	for public != "public hello" {
		pump()
		if n, rerr := b.k.Recv(b.user, pubB, buf); rerr == nil && n > 0 {
			public += string(buf[:n])
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("allowed flow stalled: got %q", public)
		}
	}

	// The denied flow is rejected by the RECEIVING kernel, with denial
	// provenance recorded there; the data never becomes readable.
	denials0 := b.rec.M.Denials.Load()
	if _, err := b.k.Recv(b.user, secB, buf); !errors.Is(err, kernel.ErrAccess) {
		return fmt.Errorf("denied recv = %v, want EACCES", err)
	}
	if b.rec.M.Denials.Load() == denials0 {
		return errors.New("denied remote flow left no telemetry on the receiving kernel")
	}
	return nil
}

// clusterMember is one label-plane member for the cluster smoke: a
// booted stack plus its cluster node. The durable store it boots from is
// the member's identity — restarting with the same store is the same
// member reincarnated under a bumped epoch.
type clusterMember struct {
	*node
	cl *cluster.Cluster
}

func bootClusterMember(id uint64, seeds []string, store durable.Store, batching bool) (*clusterMember, error) {
	return bootClusterMemberAt(id, seeds, store, batching, telemetry.LevelDeny, false)
}

func bootClusterMemberAt(id uint64, seeds []string, store durable.Store, batching bool,
	level telemetry.Level, tracing bool) (*clusterMember, error) {
	n, err := bootNodeAt(id, batching, level, tracing)
	if err != nil {
		return nil, err
	}
	cl := cluster.New(cluster.Config{
		ID: id, Kernel: n.k, Module: n.mod, Recorder: n.rec,
		Store: store, Seeds: seeds, Batching: batching, Tracing: tracing,
	})
	if err := cl.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if _, err := cl.Join(); err != nil {
		return nil, err
	}
	return &clusterMember{node: n, cl: cl}, nil
}

// runClusterSmoke exercises the cluster label plane end to end: a
// three-node cluster converges; node 3 is killed and restarted from its
// persisted store, must come back under a strictly larger incarnation
// epoch, and the cluster must reconverge; finally a routed flow from
// node 1 through the relay at node 2 to node 3 must deliver — every hop
// re-checked by that hop's own LSM.
func runClusterSmoke(batching bool) error {
	store3 := durable.NewMemStore()
	n1, err := bootClusterMember(1, nil, durable.NewMemStore(), batching)
	if err != nil {
		return err
	}
	defer n1.cl.Close()
	seeds := []string{n1.cl.Addr()}
	n2, err := bootClusterMember(2, seeds, durable.NewMemStore(), batching)
	if err != nil {
		return err
	}
	defer n2.cl.Close()
	n3, err := bootClusterMember(3, seeds, store3, batching)
	if err != nil {
		return err
	}

	members := []*clusterMember{n1, n2, n3}
	if err := convergeCluster(members, "initial join", 1, 2, 3); err != nil {
		return err
	}
	epoch0 := n3.cl.Epoch()

	// Kill node 3 and restart the same member from the same store.
	n3.cl.Close()
	n3, err = bootClusterMember(3, seeds, store3, batching)
	if err != nil {
		return fmt.Errorf("restart node 3: %w", err)
	}
	defer func() { n3.cl.Close() }()
	if n3.cl.Epoch() <= epoch0 {
		return fmt.Errorf("restart epoch %d, want > %d (stale incarnations must be distinguishable)",
			n3.cl.Epoch(), epoch0)
	}
	members = []*clusterMember{n1, n2, n3}
	if err := convergeCluster(members, "after kill+restart", 1, 2, 3); err != nil {
		return err
	}

	// Routed flow across the reconverged cluster: 1 → relay at 2 → 3. A
	// routed open that lands in a suspect window at the relay degrades to
	// silence (the unreliable channel), so establishment retries: each
	// attempt sends a uniquely numbered probe and is verified only when
	// that probe arrives at node 3 on an accepted channel — a stale
	// duplicate from an earlier lost attempt can never be mispaired.
	var (
		fdA, fdC    kernel.FD
		accepted    []kernel.FD
		established bool
		attempt     byte
	)
	deadline := time.Now().Add(20 * time.Second)
	buf := make([]byte, 128)
	for !established {
		if time.Now().After(deadline) {
			return errors.New("routed channel 1 -> relay at 2 -> 3 never established")
		}
		attempt++
		fd, oerr := n1.cl.OpenVia(n1.user, 2, 3, difc.Labels{})
		if oerr != nil {
			tickCluster(members)
			continue
		}
		if _, serr := n1.k.Send(n1.user, fd, []byte{0xA5, attempt}); serr != nil {
			return fmt.Errorf("routed probe send: %w", serr)
		}
		for i := 0; i < 400 && !established; i++ {
			tickCluster(members)
			for {
				afd, _, aerr := n3.cl.Node().Accept(n3.user)
				if aerr != nil {
					break
				}
				accepted = append(accepted, afd)
			}
			for _, afd := range accepted {
				if nr, rerr := n3.k.Recv(n3.user, afd, buf); rerr == nil && nr >= 2 &&
					buf[nr-2] == 0xA5 && buf[nr-1] == attempt {
					fdA, fdC, established = fd, afd, true
					break
				}
			}
		}
	}

	const hello = "routed hello through the label plane"
	if _, err := n1.k.Send(n1.user, fdA, []byte(hello)); err != nil {
		return fmt.Errorf("routed send: %w", err)
	}
	var got string
	for got != hello {
		tickCluster(members)
		if nr, rerr := n3.k.Recv(n3.user, fdC, buf); rerr == nil && nr > 0 {
			got += string(buf[:nr])
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("routed flow stalled: got %q", got)
		}
	}
	return nil
}

// tickCluster advances every member one logical tick, paced so a TCP
// round-trip spans about one tick (busy-ticking would outrun heartbeat
// delivery and flap the failure detector).
func tickCluster(members []*clusterMember) {
	for _, m := range members {
		m.cl.Tick()
	}
	time.Sleep(200 * time.Microsecond)
}

// convergeCluster ticks until every member is joined and sees every id
// alive.
func convergeCluster(members []*clusterMember, what string, ids ...uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		tickCluster(members)
		done := true
		for _, m := range members {
			if !m.cl.Joined() || !m.cl.Converged(ids...) {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			var view strings.Builder
			for _, m := range members {
				fmt.Fprintf(&view, " [joined=%v members=%v]", m.cl.Joined(), m.cl.Members())
			}
			return fmt.Errorf("cluster never converged (%s):%s", what, view.String())
		}
	}
}

// runTraceSmoke routes a secrecy-labeled flow 1 → relay at 2 → 3 with
// tracing on. Node 3's user task lacks the tag, so node 3's own LSM
// denies the final Recv — the denial event carries the trace context the
// transport propagated across both legs. The route is then reconstructed
// twice: from node 3's dump alone (the denial hop self-explains) and
// from the merged three-node dump (every hop present), with every
// recorded check re-run.
func runTraceSmoke(batching bool, dumpdir string) error {
	n1, err := bootClusterMemberAt(1, nil, durable.NewMemStore(), batching, telemetry.LevelAll, true)
	if err != nil {
		return err
	}
	defer n1.cl.Close()
	seeds := []string{n1.cl.Addr()}
	n2, err := bootClusterMemberAt(2, seeds, durable.NewMemStore(), batching, telemetry.LevelAll, true)
	if err != nil {
		return err
	}
	defer n2.cl.Close()
	n3, err := bootClusterMemberAt(3, seeds, durable.NewMemStore(), batching, telemetry.LevelAll, true)
	if err != nil {
		return err
	}
	defer n3.cl.Close()
	members := []*clusterMember{n1, n2, n3}
	if err := convergeCluster(members, "trace smoke join", 1, 2, 3); err != nil {
		return err
	}

	tag, err := n1.k.AllocTag(n1.user)
	if err != nil {
		return err
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}

	// Establish the routed channel. A routed open landing in a suspect
	// window degrades to silence, so establishment retries; each attempt
	// sends a probe so the relay has bytes to move (the hop-1 checks fire
	// on the relay pump either way).
	var fdC kernel.FD
	established := false
	deadline := time.Now().Add(20 * time.Second)
	var attempt byte
	for !established {
		if time.Now().After(deadline) {
			return errors.New("routed labeled channel 1 -> relay at 2 -> 3 never established")
		}
		attempt++
		fd, oerr := n1.cl.OpenVia(n1.user, 2, 3, secret)
		if oerr != nil {
			tickCluster(members)
			continue
		}
		if _, serr := n1.k.Send(n1.user, fd, []byte{0x5A, attempt}); serr != nil {
			return fmt.Errorf("routed probe send: %w", serr)
		}
		for i := 0; i < 400 && !established; i++ {
			tickCluster(members)
			for {
				afd, labels, aerr := n3.cl.Node().Accept(n3.user)
				if aerr != nil {
					break
				}
				if !labels.S.IsEmpty() {
					fdC, established = afd, true
				}
			}
		}
	}

	// The denial at hop 2: node 3's unlabeled user task may not read the
	// secret endpoint; its own LSM rejects the Recv with provenance.
	buf := make([]byte, 64)
	if _, rerr := n3.k.Recv(n3.user, fdC, buf); !errors.Is(rerr, kernel.ErrAccess) {
		return fmt.Errorf("labeled recv at node 3 = %v, want EACCES", rerr)
	}

	evs1, evs2, evs3 := n1.rec.Snapshot(), n2.rec.Snapshot(), n3.rec.Snapshot()
	var traceID uint64
	for _, e := range evs3 {
		if e.Kind == telemetry.KindDeny && e.TraceID != 0 {
			traceID = e.TraceID
		}
	}
	if traceID == 0 {
		return errors.New("node 3 recorded no traced denial")
	}

	// Hop 2 self-explains from node 3's dump alone.
	rep3, err := telemetry.ExplainRoute(traceID, evs3)
	if err != nil {
		return fmt.Errorf("explain-route from node 3 alone: %w", err)
	}
	if !rep3.Denied || rep3.DeniedHop != 2 {
		return fmt.Errorf("node-3-only route: denied=%v hop=%d, want denial at hop 2", rep3.Denied, rep3.DeniedHop)
	}

	// The merged dump reconstructs every hop, and every replayable check
	// must MATCH its record.
	all := append(append(append([]telemetry.Event(nil), evs1...), evs2...), evs3...)
	rep, err := telemetry.ExplainRoute(traceID, all)
	if err != nil {
		return fmt.Errorf("explain-route from merged dump: %w", err)
	}
	hops := map[uint8]bool{}
	for _, h := range rep.Hops {
		hops[h.Hop] = true
		for _, c := range h.Checks {
			if c.Result.Replayable && !c.Result.Matches {
				return fmt.Errorf("hop %d @ node %d: replay DIVERGED: %s", h.Hop, h.Node, c.Result.Reason)
			}
		}
	}
	for hop := uint8(0); hop <= 2; hop++ {
		if !hops[hop] {
			return fmt.Errorf("merged route is missing hop %d (got %v)", hop, rep.Hops)
		}
	}
	if !rep.Denied || rep.DeniedHop != 2 {
		return fmt.Errorf("merged route: denied=%v hop=%d, want denial at hop 2", rep.Denied, rep.DeniedHop)
	}
	fmt.Print(telemetry.FormatRoute(rep))

	if dumpdir != "" {
		if err := os.MkdirAll(dumpdir, 0o755); err != nil {
			return err
		}
		for i, m := range members {
			f, err := os.Create(fmt.Sprintf("%s/node%d.jsonl", dumpdir, i+1))
			if err != nil {
				return err
			}
			if err := m.rec.DumpWithMeta(f); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
		f, err := os.Create(dumpdir + "/merged.jsonl")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WriteDump(f, all); err != nil {
			return err
		}
	}
	return nil
}

// runClusterStats demonstrates cluster-wide metrics aggregation: stats
// broadcasts land on every peer, a killed node's slice goes stale, and
// the merged snapshot renders as Prometheus text.
func runClusterStats(batching bool) error {
	n1, err := bootClusterMember(1, nil, durable.NewMemStore(), batching)
	if err != nil {
		return err
	}
	defer n1.cl.Close()
	seeds := []string{n1.cl.Addr()}
	n2, err := bootClusterMember(2, seeds, durable.NewMemStore(), batching)
	if err != nil {
		return err
	}
	defer n2.cl.Close()
	n3, err := bootClusterMember(3, seeds, durable.NewMemStore(), batching)
	if err != nil {
		return err
	}
	members := []*clusterMember{n1, n2, n3}
	if err := convergeCluster(members, "stats join", 1, 2, 3); err != nil {
		return err
	}

	// Tick until node 1 has heard a stats broadcast from both peers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		tickCluster(members)
		if len(n1.cl.ClusterSnapshot().Nodes) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("stats broadcasts never reached node 1")
		}
	}

	// Kill node 3; its cached slice must go stale on node 1 once the
	// failure detector reclassifies it.
	n3.cl.Close()
	live := []*clusterMember{n1, n2}
	for {
		tickCluster(live)
		cs := n1.cl.ClusterSnapshot()
		stale := false
		for _, n := range cs.Nodes {
			if n.Node == 3 && n.Stale {
				stale = true
			}
		}
		if stale {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("killed node's stats slice never went stale on node 1")
		}
	}

	cs := n1.cl.ClusterSnapshot()
	if err := cs.WritePrometheus(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("laminar-netd: cluster stats ok — %d node slices merged, %d stale after the kill\n",
		len(cs.Nodes), cs.StaleNodes)
	return nil
}

// runDaemon listens for peer kernels and pumps until SIGINT/SIGTERM.
func runDaemon(addr string, echo, batching bool, interval time.Duration) error {
	n, err := bootNode(uint64(os.Getpid()), batching)
	if err != nil {
		return err
	}
	if err := n.nl.Listen(addr); err != nil {
		return err
	}
	fmt.Printf("laminar-netd: kernel up, listening on %s (batching %v)\n", n.nl.Addr(), batching)

	var stop atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { <-sig; stop.Store(true); n.nl.Close() }()

	serve(n, echo, interval, &stop)
	return nil
}

// serve pumps n and accepts every channel peers open until stop is set.
// With echo on, each accepted channel gets its own goroutine and buffer
// that sends back whatever the channel receives. It returns once every
// echo goroutine has seen stop.
func serve(n *node, echo bool, interval time.Duration, stop *atomic.Bool) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for !stop.Load() {
		n.nl.Pump()
		for {
			fd, labels, aerr := n.nl.Accept(n.user)
			if aerr != nil {
				break
			}
			fmt.Printf("laminar-netd: accepted channel %v (fd %d)\n", labels, fd)
			if !echo {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				echoChannel(n, fd, interval, stop)
			}()
		}
		time.Sleep(interval)
	}
}

// echoChannel sends back what channel fd receives until stop is set. A
// denied or dropped echo is silence, like any other unreliable delivery.
func echoChannel(n *node, fd kernel.FD, interval time.Duration, stop *atomic.Bool) {
	buf := make([]byte, 64*1024)
	for !stop.Load() {
		nr, rerr := n.k.Recv(n.user, fd, buf)
		if rerr == nil && nr > 0 {
			n.k.Send(n.user, fd, buf[:nr])
		} else {
			time.Sleep(interval)
		}
	}
}

// runClient opens one unlabeled channel to addr, sends msg, and prints
// any reply that arrives within wait.
func runClient(addr, msg string, wait time.Duration, batching bool) error {
	n, err := bootNode(uint64(os.Getpid()), batching)
	if err != nil {
		return err
	}
	if err := n.nl.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer n.nl.Close()
	fd, err := n.nl.Open(n.user, addr, difc.Labels{})
	if err != nil {
		return err
	}
	if _, err := n.k.Send(n.user, fd, []byte(msg)); err != nil {
		return err
	}
	deadline := time.Now().Add(wait)
	buf := make([]byte, 64*1024)
	for time.Now().Before(deadline) {
		n.nl.Pump()
		if nr, rerr := n.k.Recv(n.user, fd, buf); rerr == nil && nr > 0 {
			fmt.Printf("laminar-netd: reply: %q\n", buf[:nr])
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("laminar-netd: no reply (sent into the unreliable channel)")
	return nil
}
