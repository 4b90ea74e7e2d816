package eval

// Trace-overhead benchmark: the netd hot path (cross-kernel labeled
// messages over localhost TCP) under a traced-vs-untraced matrix —
// bare (no telemetry recorder at all), off (recorder at LevelOff,
// tracing disabled: the production default), on (same level, trace
// propagation enabled), and deny (LevelDeny recording plus tracing, the
// full observability configuration, informational). The gates compare
// like with like: the disabled path must stay within 2% of bare, and
// turning tracing on must cost at most 10% over tracing off at the
// same recording level — tracing only touches opens (mint + bind + a
// 27-byte wire extension), never the per-message path, so both hold
// with margin. The cost of active recording itself is a different
// knob, gated by laminar-bench -storm -gate; the deny row shows it
// here for context without gating on it.

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/kernel"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// Trace-gate thresholds.
const (
	traceGateOff = 1.02 // telemetry on, tracing off: vs bare
	traceGateOn  = 1.10 // tracing on: vs tracing off
)

// TraceRow is one configuration's measurement.
type TraceRow struct {
	Mode       string  `json:"mode"` // bare | off | on | deny
	Msgs       int     `json:"messages"`
	WallNs     int64   `json:"wall_ns"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
}

// TraceReport is the laminar-bench -trace result (BENCH_trace.json).
type TraceReport struct {
	Msgs    int        `json:"messages"`
	Payload int        `json:"payload_bytes"`
	Trials  int        `json:"trials"`
	Rows    []TraceRow `json:"rows"`

	OverheadOff float64 `json:"overhead_off"` // bare rate / off rate
	OverheadOn  float64 `json:"overhead_on"`  // off rate / on rate
	GateOff     float64 `json:"gate_off"`
	GateOn      float64 `json:"gate_on"`
	Pass        bool    `json:"pass"`
}

// Trace runs the four-configuration matrix, best of trials per cell: the
// netd hot path (two kernel+LSM stacks over TCP, one channel, batching
// on as in production) with each mode's recorder.
func Trace(msgs, trials int) (*TraceReport, error) {
	const payload = 1024
	rep := &TraceReport{Msgs: msgs, Payload: payload, Trials: trials,
		GateOff: traceGateOff, GateOn: traceGateOn}
	modes := []string{"bare", "off", "on", "deny"}
	best, err := minTimeModes(trials, msgs, modes, func(mode string, msgs int) (time.Duration, error) {
		return runNetd("trace bench", payload, msgs, func(id uint64) (*netdPeer, error) {
			cfg := netlabel.Config{Batching: true, Tracing: mode == "on" || mode == "deny"}
			if mode == "bare" {
				return bootNetdPeer(id, []kernel.Option{kernel.WithoutTelemetry()}, cfg)
			}
			cfg.Recorder = telemetry.NewRecorder() // at LevelOff
			if mode == "deny" {
				cfg.Recorder.SetLevel(telemetry.LevelDeny)
			}
			return bootNetdPeer(id, []kernel.Option{kernel.WithTelemetry(cfg.Recorder)}, cfg)
		}, openUnlabeled)
	})
	if err != nil {
		return nil, err
	}
	rates := map[string]float64{}
	for _, mode := range modes {
		rate := float64(msgs) / best[mode].Seconds()
		rates[mode] = rate
		rep.Rows = append(rep.Rows, TraceRow{Mode: mode, Msgs: msgs,
			WallNs: best[mode].Nanoseconds(), MsgsPerSec: rate})
	}
	rep.OverheadOff = rates["bare"] / rates["off"]
	rep.OverheadOn = rates["off"] / rates["on"]
	rep.Pass = rep.OverheadOff <= rep.GateOff && rep.OverheadOn <= rep.GateOn
	return rep, nil
}

// Gate returns why the run misses its gates, or "" when it passes.
func (r *TraceReport) Gate() string {
	if r.Pass {
		return ""
	}
	return fmt.Sprintf("trace overhead off=%.3fx (gate %.2fx) on=%.3fx (gate %.2fx)",
		r.OverheadOff, r.GateOff, r.OverheadOn, r.GateOn)
}

// Format renders the text table for EXPERIMENTS.md.
func (r *TraceReport) Format() string {
	var b strings.Builder
	b.WriteString(header("trace: flow-tracing overhead on the netd hot path"))
	fmt.Fprintf(&b, "%d messages of %d bytes, best of %d trial(s); batching on\n\n",
		r.Msgs, r.Payload, r.Trials)
	fmt.Fprintf(&b, "%-6s %14s %12s\n", "mode", "msgs/sec", "wall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %14.0f %12s\n", row.Mode, row.MsgsPerSec, time.Duration(row.WallNs))
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\ntelemetry-off overhead vs bare: %.3fx (gate ≤ %.2fx)\n", r.OverheadOff, r.GateOff)
	fmt.Fprintf(&b, "tracing-on overhead vs off:     %.3fx (gate ≤ %.2fx)\n", r.OverheadOn, r.GateOn)
	fmt.Fprintf(&b, "gate: %s\n", verdict)
	return b.String()
}
