package eval

// Cluster benchmark: labeled-message throughput across the cluster label
// plane (msgs/sec vs node count, routed vs direct). For each node count a
// full cluster is formed — membership bootstrap, join changes, heartbeats
// all live — and one labeled channel is driven from node 1 to node N,
// either directly or routed through the relay at node 2, where the hop's
// own LSM re-checks every forwarded byte. The routed-vs-direct ratio is
// the price of a fully checked intermediate hop.
//
// Messages flow through netd.go's stream loop — burst into the endpoint
// up to the buffer budget, tick every node (pump + relays), drain at the
// receiver — so no byte ever hits the silent-drop path. Telemetry stays
// at the production default (recorder absent): the bench measures the
// plane, not the recorder.

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// ClusterRow is one (node count, routing mode) measurement.
type ClusterRow struct {
	Nodes      int     `json:"nodes"`
	Routed     bool    `json:"routed"`
	Msgs       int     `json:"messages"`
	WallNs     int64   `json:"wall_ns"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	// RouteOverhead on routed rows: direct rate at the same node count
	// divided by this row's rate (≥1 means the checked hop costs that much).
	RouteOverhead float64 `json:"route_overhead,omitempty"`
}

// ClusterReport is the laminar-bench -cluster result (BENCH_cluster.json).
type ClusterReport struct {
	Msgs    int          `json:"messages_per_cell"`
	Payload int          `json:"payload_bytes"`
	Trials  int          `json:"trials"`
	Rows    []ClusterRow `json:"rows"`
}

// clusterPayload fixes the message size: one axis (node count × routing)
// is enough; the payload sweep already lives in the netd bench.
const clusterPayload = 1024

// clusterNodeCounts is the membership axis.
var clusterNodeCounts = []int{2, 3, 4}

// benchMember is one cluster member booted for the bench: kernel, LSM,
// user task and label-plane node, no recorder.
type benchMember struct {
	k    *kernel.Kernel
	user *kernel.Task
	cl   *cluster.Cluster
}

// bootBenchCluster forms an n-node cluster and ticks it to convergence.
func bootBenchCluster(n int) ([]*benchMember, error) {
	members := make([]*benchMember, 0, n)
	var seeds []string
	for id := 1; id <= n; id++ {
		mod := lsm.New()
		k := kernel.New(kernel.WithSecurityModule(mod))
		mod.InstallSystemIntegrity(k)
		user, err := k.Spawn(k.InitTask(), nil)
		if err != nil {
			return members, err
		}
		cl := cluster.New(cluster.Config{
			ID: uint64(id), Kernel: k, Module: mod, Seeds: seeds, Batching: true,
		})
		if err := cl.Listen("127.0.0.1:0"); err != nil {
			return members, err
		}
		if _, err := cl.Join(); err != nil {
			return members, err
		}
		if id == 1 {
			seeds = []string{cl.Addr()}
		}
		members = append(members, &benchMember{k: k, user: user, cl: cl})
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, m := range members {
			m.cl.Tick()
			if !m.cl.Joined() || !m.cl.Converged(ids...) {
				done = false
			}
		}
		if done {
			return members, nil
		}
		// Pace the ticks so a TCP round-trip spans about one of them:
		// busy-ticking outruns heartbeat delivery and flaps the detector.
		time.Sleep(200 * time.Microsecond)
		if time.Now().After(deadline) {
			return members, fmt.Errorf("cluster: %d nodes never converged", n)
		}
	}
}

// runCluster forms an n-node cluster and streams msgs labeled messages
// from node 1 to node n — directly, or routed through the checked relay
// at node 2 — returning the wall time from first send to last byte.
func runCluster(nodes, msgs int, routed bool) (time.Duration, error) {
	members, err := bootBenchCluster(nodes)
	defer func() {
		for _, m := range members {
			m.cl.Close()
		}
	}()
	if err != nil {
		return 0, err
	}
	src, dst := members[0], members[nodes-1]
	tickAll := func() {
		for _, m := range members {
			m.cl.Tick()
		}
	}

	// Establish with probe verification: a routed open landing in a
	// suspect window at the relay degrades to silence, so each attempt
	// sends a uniquely numbered probe and counts only when that probe
	// arrives on an accepted channel (no mispairing with a stale
	// duplicate from an earlier lost attempt).
	var (
		fdA, fdB    kernel.FD
		accepted    []kernel.FD
		established bool
		attempt     byte
	)
	rbuf := make([]byte, 64*1024)
	deadline := time.Now().Add(30 * time.Second)
	for !established {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cluster: channel never established (routed=%v)", routed)
		}
		attempt++
		var fd kernel.FD
		if routed {
			fd, err = src.cl.OpenVia(src.user, 2, uint64(nodes), difc.Labels{})
		} else {
			fd, err = src.cl.Open(src.user, uint64(nodes), difc.Labels{})
		}
		if err != nil {
			tickAll()
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if _, serr := src.k.Send(src.user, fd, []byte{0xA5, attempt}); serr != nil {
			return 0, fmt.Errorf("cluster probe send: %w", serr)
		}
		for i := 0; i < 400 && !established; i++ {
			tickAll()
			time.Sleep(200 * time.Microsecond)
			for {
				afd, _, aerr := dst.cl.Node().Accept(dst.user)
				if aerr != nil {
					break
				}
				accepted = append(accepted, afd)
			}
			for _, afd := range accepted {
				if n, rerr := dst.k.Recv(dst.user, afd, rbuf); rerr == nil && n >= 2 &&
					rbuf[n-2] == 0xA5 && rbuf[n-1] == attempt {
					fdA, fdB, established = fd, afd, true
					break
				}
			}
		}
	}

	return stream("cluster", streamEnd{src.k, src.user, fdA}, streamEnd{dst.k, dst.user, fdB},
		clusterPayload, msgs, tickAll)
}

// Cluster runs the throughput matrix: node count {2, 3, 4} × routing
// {direct, routed}, best of trials. Routed rows need at least 3 nodes
// (there is no intermediate hop in a pair).
func Cluster(msgs, trials int) (*ClusterReport, error) {
	rep := &ClusterReport{Msgs: msgs, Payload: clusterPayload, Trials: trials}
	direct := make(map[int]float64)
	for _, routed := range []bool{false, true} {
		for _, nodes := range clusterNodeCounts {
			if routed && nodes < 3 {
				continue
			}
			best, err := minTime(trials, func() (time.Duration, error) { return runCluster(nodes, msgs, routed) })
			if err != nil {
				return nil, fmt.Errorf("nodes %d routed %v: %w", nodes, routed, err)
			}
			row := ClusterRow{
				Nodes:      nodes,
				Routed:     routed,
				Msgs:       msgs,
				WallNs:     best.Nanoseconds(),
				MsgsPerSec: float64(msgs) / best.Seconds(),
				MBPerSec:   float64(msgs*clusterPayload) / (1 << 20) / best.Seconds(),
			}
			if !routed {
				direct[nodes] = row.MsgsPerSec
			} else if base := direct[nodes]; base > 0 && row.MsgsPerSec > 0 {
				row.RouteOverhead = base / row.MsgsPerSec
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Format renders the text table for EXPERIMENTS.md.
func (r *ClusterReport) Format() string {
	var b strings.Builder
	b.WriteString(header("cluster: labeled throughput across the label plane (direct vs checked relay)"))
	fmt.Fprintf(&b, "%d messages of %d bytes per cell, best of %d trial(s); full membership + change engine live\n\n",
		r.Msgs, r.Payload, r.Trials)
	fmt.Fprintf(&b, "%-7s %8s %14s %12s %14s\n", "nodes", "path", "msgs/sec", "MB/sec", "hop overhead")
	for _, row := range r.Rows {
		path := "direct"
		ov := ""
		if row.Routed {
			path = "routed"
			ov = fmt.Sprintf("%12.2fx", row.RouteOverhead)
		}
		fmt.Fprintf(&b, "%-7d %8s %14.0f %12.2f %14s\n",
			row.Nodes, path, row.MsgsPerSec, row.MBPerSec, ov)
	}
	return b.String()
}
