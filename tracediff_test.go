package laminar_test

// Differential oracle for trace propagation: the netdiff script is run
// remotely WITH tracing enabled — every open mints a trace context,
// carries it in the netlabel frame extension, and binds it to the far
// endpoint — and the kernel/LSM verdict stream must still be
// byte-identical to the untraced in-process replay, under the same
// link-kill chaos, for every seed and both locking disciplines.
//
// Why this must hold: the trace machinery is observation, not policy.
// TraceCtx fields are derived only from data the transport already
// carries (node ids, incarnation epochs, per-node open counters), the
// enforcement path never reads the trace registry, and stamping happens
// strictly after the verdict is computed. If tracing could shift, add,
// or suppress even one verdict, trace bytes would be a covert channel —
// a receiver could learn about labels it cannot read by watching its
// own verdict stream change. This oracle, with netdiff_test.go's
// untraced run over the same seeds, pins traced == untraced == replay.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// TestChaosTraceOracle: 30 seeds of link-kill chaos × both locking
// disciplines, tracing ON; every traced remote verdict stream must
// equal the untraced in-process replay byte for byte.
func TestChaosTraceOracle(t *testing.T) {
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
					got, gotT1 := netdiffRemote(t, seed, mode.bigLock, true, false)
					if gotT1 != wantT1 {
						t.Fatalf("tag allocation diverged: traced t1=%d, replay t1=%d", gotT1, wantT1)
					}
					if got != want {
						t.Errorf("traced verdict stream diverged from untraced replay\n--- traced (seed %d)\n%s\n--- replay\n%s", seed, got, want)
					}
				})
			}
		})
	}
}

// TestTraceOracleDirectAB compares traced and untraced REMOTE runs of
// the same seed head to head — no replay in the middle. Same chaos
// schedule, same script; the only difference is the trace machinery,
// which must be invisible in the comparable stream.
func TestTraceOracleDirectAB(t *testing.T) {
	for _, seed := range []int64{2, 11, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			untraced, t1a := netdiffRemote(t, seed, false, false, false)
			traced, t1b := netdiffRemote(t, seed, false, true, false)
			if t1a != t1b {
				t.Fatalf("tag allocation diverged: untraced t1=%d, traced t1=%d", t1a, t1b)
			}
			if traced != untraced {
				t.Errorf("tracing changed the verdict stream for seed %d\n--- traced\n%s\n--- untraced\n%s", seed, traced, untraced)
			}
		})
	}
}

// tracedDenialStamp boots a fault-free two-node transport with tracing
// on or off, drives one denial on the accepted (trace-bound) endpoint,
// and returns how many denial events carried a trace context.
func tracedDenialStamp(t *testing.T, tracing bool) int {
	t.Helper()
	a := netdiffBoot(t, false)
	b := netdiffBoot(t, false)
	nodeA := netlabel.NewNode(netlabel.Config{Kernel: a.k, Module: a.mod, Recorder: a.rec, NodeID: 1, Tracing: tracing})
	nodeB := netlabel.NewNode(netlabel.Config{Kernel: b.k, Module: b.mod, Recorder: b.rec, NodeID: 2, Tracing: tracing})
	if err := nodeA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	defer nodeB.Close()

	t1, err := a.k.AllocTag(a.user)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodeA.Open(a.user, nodeB.Addr(), difc.Labels{S: difc.NewLabel(t1)}); err != nil {
		t.Fatal(err)
	}
	var fdB kernel.FD
	deadline := time.Now().Add(10 * time.Second)
	for {
		nodeA.Pump()
		nodeB.Pump()
		var aerr error
		if fdB, _, aerr = nodeB.Accept(b.user); aerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("labeled channel never arrived")
		}
	}
	// Bob lacks t1: his own LSM denies the Recv on the bound endpoint.
	if _, rerr := b.k.Recv(b.user, fdB, make([]byte, 16)); rerr == nil {
		t.Fatal("secret recv allowed")
	}
	stamped := 0
	for _, e := range b.rec.Snapshot() {
		if e.Kind == telemetry.KindDeny && e.TraceID != 0 {
			stamped++
		}
	}
	return stamped
}

// TestTraceOracleNonVacuous guards the A/B against silent no-ops: a
// traced run must stamp trace context onto denials at bound endpoints
// (else the oracle compares two identical untraced systems), and an
// untraced run must stamp none (else "tracing off" is not off).
func TestTraceOracleNonVacuous(t *testing.T) {
	if got := tracedDenialStamp(t, true); got == 0 {
		t.Fatal("traced run recorded no trace-stamped denial: the trace oracle is vacuous")
	}
	if got := tracedDenialStamp(t, false); got != 0 {
		t.Fatalf("untraced run recorded %d trace-stamped denials, want 0", got)
	}
}
