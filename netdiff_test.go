package laminar_test

// Differential oracle for the cross-kernel labeled transport: a scripted
// two-principal flow is run REMOTELY (two kernels joined by real TCP,
// with link-kill faults injected into the transport) and REPLAYED
// in-process (one kernel, a labeled socketpair, no network at all). The
// kernel/LSM verdict streams of the two runs must be byte-identical.
//
// Why this must hold: every policy check fires on an endpoint the acting
// task's own kernel owns — Send checks before bytes enter the endpoint,
// Recv checks before the buffer is even inspected — so the verdict
// stream is a function of the operation/label script alone. What the
// network does between the endpoints (drop a batch, kill a link mid-
// handshake, lose an Open) can change which BYTES arrive, never which
// VERDICTS are issued. Transport-layer events (LayerNet) are exactly
// the fault-dependent residue, and are excluded.
//
// The oracle also depends on deterministic tag numbering: both runs
// allocate tags in lockstep from freshly booted modules, so tag N in the
// remote run names the same lattice point as tag N in the replay.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// netdiffRates: frequent frame loss, regular link kills — every seed's
// schedule differs, every verdict stream must not.
var netdiffRates = faultinject.Rates{Error: 0.05, Crash: 0.02}

// netdiffVerdict renders one policy denial in the byte-comparable form.
// TID/Proc/Seq are deliberately excluded (they name kernel-local task
// identities); everything the CHECK saw is included.
func netdiffVerdict(e telemetry.Event) string {
	src, _ := e.SrcLabels()
	dst, _ := e.DstLabels()
	return fmt.Sprintf("%s|%s|%s|%v|%v->%v", e.Site, e.Op, e.Rule, e.Delta, src, dst)
}

// verdictLog collects policy verdicts from one or more recorders in
// emission order. The scripts below are single-threaded, so the order
// is the script's own.
type verdictLog struct {
	mu    sync.Mutex
	lines []string
}

func (v *verdictLog) attach(rec *telemetry.Recorder) func() {
	return rec.Subscribe(func(e telemetry.Event) {
		if e.Kind != telemetry.KindDeny {
			return
		}
		if e.Layer != telemetry.LayerKernel && e.Layer != telemetry.LayerLSM {
			return
		}
		v.mu.Lock()
		v.lines = append(v.lines, netdiffVerdict(e))
		v.mu.Unlock()
	})
}

func (v *verdictLog) dump() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return strings.Join(v.lines, "\n")
}

// netdiffStack is one booted kernel + module + recorder + user task.
type netdiffStack struct {
	k    *kernel.Kernel
	mod  *lsm.Module
	rec  *telemetry.Recorder
	user *kernel.Task
}

func netdiffBoot(t *testing.T, bigLock bool) *netdiffStack {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	opts := []kernel.Option{kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec)}
	if bigLock {
		opts = append(opts, kernel.WithBigLock())
	}
	k := kernel.New(opts...)
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &netdiffStack{k: k, mod: mod, rec: rec, user: user}
}

// netdiffOps drives the scripted flow. Both runs call this with their
// own endpoints; every policy-relevant operation executes exactly once,
// in this order, so the verdict streams are comparable byte for byte.
//
// alice/bob are the acting tasks on kernels ka/kb (the same kernel in
// the replay). pubA/pubB is an unlabeled channel, secA/secB one labeled
// {S: t1} which bob has no capability for.
func netdiffOps(t *testing.T, ka, kb *kernel.Kernel,
	alice, bob *kernel.Task, pubA, pubB, secA, secB kernel.FD, t1 difc.Tag) {
	t.Helper()
	buf := make([]byte, 64)

	// 1. Public send: allowed.
	if n, err := ka.Send(alice, pubA, []byte("public-0")); err != nil || n != 8 {
		t.Fatalf("op1 send = %d, %v", n, err)
	}
	// 2. Bob reads the secret channel: DENIED by his own kernel, before
	// the buffer is inspected — arrival is irrelevant.
	if _, err := kb.Recv(bob, secB, buf); err == nil {
		t.Fatal("op2: secret recv allowed")
	}
	// 3. Alice writes up into the secret channel: allowed ({} ⊆ {t1}).
	if n, err := ka.Send(alice, secA, []byte("secret")); err != nil || n != 6 {
		t.Fatalf("op3 send = %d, %v", n, err)
	}
	// 4. Alice taints herself with a fresh tag.
	t2, err := ka.AllocTag(alice)
	if err != nil {
		t.Fatalf("op4 alloc: %v", err)
	}
	if err := ka.SetTaskLabel(alice, kernel.Secrecy, difc.NewLabel(t2)); err != nil {
		t.Fatalf("op4 taint: %v", err)
	}
	// 5. Tainted send on the public channel: DENIED, silently — the
	// return values must be indistinguishable from op 1's.
	if n, err := ka.Send(alice, pubA, []byte("leak-pub")); err != nil || n != 8 {
		t.Fatalf("op5 send = %d, %v (drop must look delivered)", n, err)
	}
	// 6. Tainted send on the secret channel: DENIED ({t2} ⊄ {t1}).
	if n, err := ka.Send(alice, secA, []byte("leak-s")); err != nil || n != 6 {
		t.Fatalf("op6 send = %d, %v", n, err)
	}
	// 7. Bob grabs for the secret label without capabilities: DENIED.
	if err := kb.SetTaskLabel(bob, kernel.Secrecy, difc.NewLabel(t1)); err == nil {
		t.Fatal("op7: capability-free label raise allowed")
	}
	// 8. Alice declassifies back (she holds t2⁻ from the allocation).
	if err := ka.SetTaskLabel(alice, kernel.Secrecy, difc.EmptyLabel); err != nil {
		t.Fatalf("op8 untaint: %v", err)
	}
	// 9. Clean public send again: allowed.
	if n, err := ka.Send(alice, pubA, []byte("public-1")); err != nil || n != 8 {
		t.Fatalf("op9 send = %d, %v", n, err)
	}
	// 10. Bob reads the public channel: allowed; EAGAIN (bytes lost or
	// late) and delivery are both silent, so no verdict either way.
	kb.Recv(bob, pubB, buf)
}

// netdiffRemote runs the script across two kernels over localhost TCP
// with seeded link faults, returning the verdict stream and t1. With
// tracing on, every open mints and propagates a trace context — which
// must not perturb the stream (see tracediff_test.go).
func netdiffRemote(t *testing.T, seed int64, bigLock, tracing bool) (string, difc.Tag) {
	t.Helper()
	a := netdiffBoot(t, bigLock)
	b := netdiffBoot(t, bigLock)

	planA := faultinject.NewPlan(seed)
	planA.SetRates("net.", netdiffRates)
	planB := faultinject.NewPlan(seed + 7919)
	planB.SetRates("net.", netdiffRates)

	nodeA := netlabel.NewNode(netlabel.Config{Kernel: a.k, Module: a.mod, Recorder: a.rec, Injector: planA, NodeID: 1, Tracing: tracing})
	nodeB := netlabel.NewNode(netlabel.Config{Kernel: b.k, Module: b.mod, Recorder: b.rec, Injector: planB, NodeID: 2, Tracing: tracing})
	if err := nodeA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	defer nodeB.Close()

	log := &verdictLog{}
	defer log.attach(a.rec)()
	defer log.attach(b.rec)()

	t1, err := a.k.AllocTag(a.user)
	if err != nil {
		t.Fatal(err)
	}

	// establish opens a channel and pumps until bob holds the far end,
	// re-opening when the link ate the Open frame. Retries emit no
	// verdicts (creates are allowed, and the recorders sit at LevelDeny),
	// so the faulted setup phase is invisible to the oracle — which is
	// the point.
	establish := func(labels difc.Labels) (kernel.FD, kernel.FD) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			fdA, oerr := nodeA.Open(a.user, nodeB.Addr(), labels)
			if oerr != nil {
				continue // link down this instant; dial again
			}
			for i := 0; i < 400; i++ {
				nodeA.Pump()
				nodeB.Pump()
				fdB, got, aerr := nodeB.Accept(b.user)
				if aerr == nil {
					if got.Equal(labels) {
						return fdA, fdB
					}
					continue // stale duplicate from an earlier retry
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		t.Fatalf("seed %d: channel %v never established", seed, labels)
		return -1, -1
	}

	pubA, pubB := establish(difc.Labels{})
	secA, secB := establish(difc.Labels{S: difc.NewLabel(t1)})

	netdiffOps(t, a.k, b.k, a.user, b.user, pubA, pubB, secA, secB, t1)
	// Let the transport settle so late LayerNet faults can try (and must
	// fail) to perturb the captured stream.
	for i := 0; i < 50; i++ {
		nodeA.Pump()
		nodeB.Pump()
	}
	return log.dump(), t1
}

// netdiffReplay runs the identical script through one kernel and an
// in-process labeled socketpair: the fault-free ground truth.
func netdiffReplay(t *testing.T, bigLock bool) (string, difc.Tag) {
	t.Helper()
	s := netdiffBoot(t, bigLock)
	bob, err := s.k.Spawn(s.k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}

	log := &verdictLog{}
	defer log.attach(s.rec)()

	t1, err := s.k.AllocTag(s.user)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(labels difc.Labels) (kernel.FD, kernel.FD) {
		x, y, perr := s.k.SocketpairLabeled(s.user, labels)
		if perr != nil {
			t.Fatal(perr)
		}
		bfd, derr := s.k.DupTo(s.user, y, bob)
		if derr != nil {
			t.Fatal(derr)
		}
		return x, bfd
	}
	pubA, pubB := pair(difc.Labels{})
	secA, secB := pair(difc.Labels{S: difc.NewLabel(t1)})

	netdiffOps(t, s.k, s.k, s.user, bob, pubA, pubB, secA, secB, t1)
	return log.dump(), t1
}

// TestNetDifferentialOracle: 30 seeds of link-kill chaos × both locking
// disciplines; every remote verdict stream must equal the in-process
// replay byte for byte.
func TestNetDifferentialOracle(t *testing.T) {
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
					got, gotT1 := netdiffRemote(t, seed, mode.bigLock, false)
					if gotT1 != wantT1 {
						t.Fatalf("tag allocation diverged: remote t1=%d, replay t1=%d", gotT1, wantT1)
					}
					if got != want {
						t.Errorf("verdict stream diverged from in-process replay\n--- remote (seed %d)\n%s\n--- replay\n%s", seed, got, want)
					}
				})
			}
		})
	}
}
