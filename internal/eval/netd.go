package eval

// Netd benchmark: cross-kernel labeled-message throughput over real
// localhost TCP. Two full kernel+LSM stacks are booted, connected with
// netlabel nodes, and a labeled channel is driven as hard as the pump
// loop allows for a matrix of payload sizes × write batching on/off.
//
// Methodology: the sender bursts messages into the channel endpoint up
// to the endpoint buffer's capacity, pumps its node (drain + flush),
// and the receiver pumps and drains its endpoint in the same loop, so
// neither side's buffer ever overflows — every sent byte is delivered
// and the measured rate is sustained end-to-end throughput, not a
// buffer-fill artifact. Telemetry stays at the production default
// (LevelOff): the bench measures the transport, not the recorder.

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
)

// NetdRow is one (payload size, batching) measurement.
type NetdRow struct {
	PayloadBytes int     `json:"payload_bytes"`
	Batching     bool    `json:"batching"`
	Msgs         int     `json:"messages"`
	WallNs       int64   `json:"wall_ns"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"`
	// BatchSpeedup on batching rows: this row / matching unbatched row.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
}

// NetdReport is the laminar-bench -netd result (BENCH_netd.json).
type NetdReport struct {
	Msgs   int       `json:"messages_per_cell"`
	Trials int       `json:"trials"`
	Rows   []NetdRow `json:"rows"`
}

// netdPayloads is the payload-size axis.
var netdPayloads = []int{64, 1024, 16384}

// netdEndpointBudget bounds a send burst: the channel endpoint buffer is
// the kernel pipe capacity (64 KiB); bursting half of it leaves room for
// the drain loop's chunking without ever hitting the silent-drop path,
// which would turn lost messages into an infinitely patient benchmark.
const netdEndpointBudget = 32 * 1024

// netdPeer is one kernel+LSM stack with an unprivileged user task and a
// netlabel node listening on a loopback port.
type netdPeer struct {
	k    *kernel.Kernel
	mod  *lsm.Module
	user *kernel.Task
	node *netlabel.Node
}

// bootNetdPeer boots peer id: a kernel with the LSM plus opts, and a node
// configured by cfg (its Kernel, Module and NodeID are filled in here; a
// cfg.Recorder also records the module's verdicts).
func bootNetdPeer(id uint64, opts []kernel.Option, cfg netlabel.Config) (*netdPeer, error) {
	mod := lsm.New()
	k := kernel.New(append([]kernel.Option{kernel.WithSecurityModule(mod)}, opts...)...)
	mod.InstallSystemIntegrity(k)
	if cfg.Recorder != nil {
		mod.SetTelemetry(cfg.Recorder)
	}
	user, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, err
	}
	cfg.Kernel, cfg.Module, cfg.NodeID = k, mod, id
	node := netlabel.NewNode(cfg)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &netdPeer{k: k, mod: mod, user: user, node: node}, nil
}

// openNetdChannel opens a channel labeled labels from a's user task to b
// and pumps both nodes until b's user task accepts it.
func openNetdChannel(a, b *netdPeer, labels difc.Labels) (fdA, fdB kernel.FD, err error) {
	if fdA, err = a.node.Open(a.user, b.node.Addr(), labels); err != nil {
		return 0, 0, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.node.Pump()
		b.node.Pump()
		if fdB, _, err = b.node.Accept(b.user); err == nil {
			return fdA, fdB, nil
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("channel never arrived")
		}
	}
}

// streamEnd is one end of an established labeled channel.
type streamEnd struct {
	k    *kernel.Kernel
	user *kernel.Task
	fd   kernel.FD
}

// stream sends msgs messages of payload bytes from src to dst and returns
// the wall time from first send to last byte received. pump moves the
// bytes in between (pumping nodes, ticking a cluster); what names the
// experiment in errors.
func stream(what string, src, dst streamEnd, payload, msgs int, pump func()) (time.Duration, error) {
	burst := max(netdEndpointBudget/payload, 1)
	msg := make([]byte, payload)
	for i := range msg {
		msg[i] = byte(i)
	}
	rbuf := make([]byte, 64*1024)
	total := msgs * payload
	sent, received := 0, 0
	start := time.Now()
	for received < total {
		// Keep at most one burst in flight: more would overflow the
		// receiving endpoint and the transport would (correctly, silently)
		// drop it, turning the bench into a wait for bytes that died.
		for sent < msgs && sent*payload-received < burst*payload {
			n, err := src.k.Send(src.user, src.fd, msg)
			if err != nil || n != payload {
				return 0, fmt.Errorf("%s send = %d, %v", what, n, err)
			}
			sent++
		}
		pump()
		before := received
		for {
			n, err := dst.k.Recv(dst.user, dst.fd, rbuf)
			if err != nil {
				break
			}
			received += n
		}
		if received == before {
			// Nothing arrived this iteration: the bytes are in the TCP
			// stack or the reader goroutine. Busy-pumping would starve
			// that goroutine of CPU; yield instead of spinning.
			time.Sleep(20 * time.Microsecond)
		}
		if time.Since(start) > 2*time.Minute {
			return 0, fmt.Errorf("%s: stalled at %d/%d bytes", what, received, total)
		}
	}
	return time.Since(start), nil
}

// openUnlabeled opens an unlabeled channel from a to b.
func openUnlabeled(a, b *netdPeer) (fdA, fdB kernel.FD, err error) {
	return openNetdChannel(a, b, difc.Labels{})
}

// runNetd boots peers 1 and 2 with boot, connects them with open and
// streams msgs messages of payload bytes from 1 to 2 over localhost TCP.
// what names the experiment in errors.
func runNetd(what string, payload, msgs int, boot func(id uint64) (*netdPeer, error),
	open func(a, b *netdPeer) (fdA, fdB kernel.FD, err error)) (time.Duration, error) {
	a, err := boot(1)
	if err != nil {
		return 0, err
	}
	defer a.node.Close()
	b, err := boot(2)
	if err != nil {
		return 0, err
	}
	defer b.node.Close()
	fdA, fdB, err := open(a, b)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return stream(what, streamEnd{a.k, a.user, fdA}, streamEnd{b.k, b.user, fdB}, payload, msgs,
		func() { a.node.Pump(); b.node.Pump() })
}

// Netd runs the throughput matrix: payload {64, 1K, 16K} × batching
// {off, on}, best of trials.
func Netd(msgs, trials int) (*NetdReport, error) {
	rep := &NetdReport{Msgs: msgs, Trials: trials}
	unbatched := make(map[int]float64)
	for _, batching := range []bool{false, true} {
		for _, payload := range netdPayloads {
			boot := func(id uint64) (*netdPeer, error) {
				return bootNetdPeer(id, nil, netlabel.Config{Batching: batching})
			}
			best, err := minTime(trials, func() (time.Duration, error) {
				return runNetd("netd", payload, msgs, boot, openUnlabeled)
			})
			if err != nil {
				return nil, fmt.Errorf("payload %d batching %v: %w", payload, batching, err)
			}
			row := NetdRow{
				PayloadBytes: payload,
				Batching:     batching,
				Msgs:         msgs,
				WallNs:       best.Nanoseconds(),
				MsgsPerSec:   float64(msgs) / best.Seconds(),
				MBPerSec:     float64(msgs*payload) / (1 << 20) / best.Seconds(),
			}
			if !batching {
				unbatched[payload] = row.MsgsPerSec
			} else if base := unbatched[payload]; base > 0 {
				row.BatchSpeedup = row.MsgsPerSec / base
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Format renders the text table for EXPERIMENTS.md.
func (r *NetdReport) Format() string {
	var b strings.Builder
	b.WriteString(header("netd: cross-kernel labeled throughput over localhost TCP"))
	fmt.Fprintf(&b, "%d messages per cell, best of %d trial(s); two full kernel+LSM stacks, one labeled channel\n\n",
		r.Msgs, r.Trials)
	fmt.Fprintf(&b, "%-9s %9s %14s %12s %10s\n", "payload", "batching", "msgs/sec", "MB/sec", "speedup")
	for _, row := range r.Rows {
		mode := "off"
		sp := ""
		if row.Batching {
			mode = "on"
			sp = fmt.Sprintf("%8.2fx", row.BatchSpeedup)
		}
		fmt.Fprintf(&b, "%-9d %9s %14.0f %12.2f %10s\n",
			row.PayloadBytes, mode, row.MsgsPerSec, row.MBPerSec, sp)
	}
	return b.String()
}
