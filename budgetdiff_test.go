package laminar_test

// Differential oracle for quantitative flow budgets (ISSUE 10). Three
// properties, each a run-vs-run comparison:
//
//  1. Prefix identity: a budgeted run and an unlimited run of the same
//     seeded op script produce byte-identical op transcripts and
//     kernel/LSM verdict streams up to the first budget exhaustion —
//     the ledger is invisible until the moment it denies. The first
//     divergent line must be the exhaustion denial, and that line must
//     be byte-identical to what a replayed difc.CheckFlow of the same
//     operands renders: a budget denial IS a secrecy denial to every
//     downstream consumer.
//
//  2. Peer indistinguishability: a receiver watching a sender whose
//     budget exhausts mid-stream observes exactly what it observes of a
//     sender whose sends become capability-denied mid-stream — chunks
//     stop arriving, no verdict, no error, nothing. The sender-visible
//     return values are identical too (silent drop in both worlds).
//
//  3. Crash recovery never under-counts: 60 fault seeds tear the
//     shadow-write protocol at every budget.ckpt.* site while charges
//     flow through the real relabel path; after a simulated crash and
//     reboot from the same store, the recovered spend is >= every
//     acknowledged charge (rounding UP through torn flips) and never
//     exceeds the attempts (except the MaxUint64 quarantine sentinel).
//
// All three run under both locking disciplines; parts 1 and 3 run 60
// seeds each per the ISSUE acceptance criteria.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"laminar/internal/budget"
	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/telemetry"
)

// note appends a non-verdict transcript line (op results) into the same
// ordered stream the verdict subscription feeds, so op outcomes and the
// denials they provoke interleave in script order.
func (v *verdictLog) note(line string) {
	v.mu.Lock()
	v.lines = append(v.lines, line)
	v.mu.Unlock()
}

// budgetdiffBoot is netdiffBoot plus an optional ledger installed on the
// kernel.
func budgetdiffBoot(t *testing.T, bigLock bool, led *budget.Ledger) *netdiffStack {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	opts := []kernel.Option{kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec)}
	if bigLock {
		opts = append(opts, kernel.WithBigLock())
	}
	if led != nil {
		opts = append(opts, kernel.WithBudget(led))
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

// ---- part 1: prefix identity under a seeded op script --------------------

// budgetdiffOpKinds is the alphabet the seeded script draws from. The
// fixed prefix guarantees at least two effective declassifications, so
// a limit of declass/2 always exhausts mid-script.
const budgetdiffPrefix = "tu tu"

func budgetdiffScript(seed int64, n int) []string {
	ops := []string{"taint", "untaint", "taint", "untaint"}
	kinds := []string{"taint", "untaint", "grab", "pubsend", "recv"}
	rng := rand.New(rand.NewSource(seed))
	for len(ops) < n {
		ops = append(ops, kinds[rng.Intn(len(kinds))])
	}
	return ops
}

// budgetdiffDeclassCount simulates the script's taint toggling and
// returns how many untaints actually drop a tag (and hence charge).
func budgetdiffDeclassCount(ops []string) int {
	tainted, declass := false, 0
	for _, op := range ops {
		switch op {
		case "taint":
			tainted = true
		case "untaint":
			if tainted {
				declass++
			}
			tainted = false
		}
	}
	return declass
}

// budgetdiffRun executes the script on one freshly booted kernel. A nil
// ledger is the unlimited world. Returns the interleaved transcript
// (op outcomes + kernel/LSM verdicts) and the charged tag.
func budgetdiffRun(t *testing.T, bigLock bool, ops []string, limit uint64) (string, difc.Tag) {
	t.Helper()
	var led *budget.Ledger
	if limit > 0 {
		led = budget.New()
	}
	s := budgetdiffBoot(t, bigLock, led)
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
	t2, err := s.k.AllocTag(s.user)
	if err != nil {
		t.Fatal(err)
	}
	if led != nil {
		if err := led.SetLimit(t2, 0, limit); err != nil {
			t.Fatal(err)
		}
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
	pubA, _ := pair(difc.Labels{})
	secA, secB := pair(difc.Labels{S: difc.NewLabel(t1)})
	_ = secA

	buf := make([]byte, 64)
	for i, op := range ops {
		switch op {
		case "taint":
			err := s.k.SetTaskLabel(s.user, kernel.Secrecy, difc.NewLabel(t2))
			log.note(fmt.Sprintf("op%d taint err=%v", i, err != nil))
		case "untaint":
			err := s.k.SetTaskLabel(s.user, kernel.Secrecy, difc.EmptyLabel)
			log.note(fmt.Sprintf("op%d untaint err=%v", i, err != nil))
		case "grab":
			err := s.k.SetTaskLabel(bob, kernel.Secrecy, difc.NewLabel(t1))
			log.note(fmt.Sprintf("op%d grab err=%v", i, err != nil))
		case "pubsend":
			n, err := s.k.Send(s.user, pubA, []byte("payload!"))
			log.note(fmt.Sprintf("op%d pubsend n=%d err=%v", i, n, err != nil))
		case "recv":
			_, err := s.k.Recv(bob, secB, buf)
			log.note(fmt.Sprintf("op%d recv err=%v", i, err != nil))
		}
	}
	return log.dump(), t2
}

// TestBudgetDifferentialOracle: 60 seeded scripts x both locking
// disciplines. The budgeted transcript must equal the unlimited one line
// for line until the exhaustion denial, which must itself render as the
// replayable capability-denial shape.
func TestBudgetDifferentialOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		bigLock bool
	}{{"sharded", false}, {"biglock", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					ops := budgetdiffScript(seed, 40)
					declass := budgetdiffDeclassCount(ops)
					if declass < 2 {
						t.Fatalf("script has %d declassifications; prefix guarantee broken", declass)
					}
					limit := uint64(declass / 2)

					unlimited, t2u := budgetdiffRun(t, mode.bigLock, ops, 0)
					budgeted, t2b := budgetdiffRun(t, mode.bigLock, ops, limit)
					if t2u != t2b {
						t.Fatalf("tag allocation diverged: %d vs %d", t2u, t2b)
					}

					ul := strings.Split(unlimited, "\n")
					bl := strings.Split(budgeted, "\n")
					div := -1
					for i := 0; i < len(ul) && i < len(bl); i++ {
						if ul[i] != bl[i] {
							div = i
							break
						}
					}
					if div == -1 {
						t.Fatalf("no divergence: limit %d of %d declassifications never exhausted\n%s", limit, declass, budgeted)
					}

					// The first divergent budgeted line is the exhaustion
					// denial, and it must render byte-identically to (a) the
					// ExhaustedError shape and (b) a genuine difc.CheckFlow
					// secrecy denial of the same operands, replayed through
					// the same event classifier. No new distinguisher.
					wantDeny := netdiffVerdict(telemetry.DenyEvent(
						telemetry.LayerLSM, "hook.SetTaskLabel", "set_task_label", 0, 0,
						budget.ExhaustedError("set_task_label", t2b)))
					cfErr := difc.CheckFlow("set_task_label",
						difc.Labels{S: difc.NewLabel(t2b)}, difc.Labels{})
					if cfErr == nil {
						t.Fatal("CheckFlow({t2} -> {}) allowed; replay reference is broken")
					}
					replayDeny := netdiffVerdict(telemetry.DenyEvent(
						telemetry.LayerLSM, "hook.SetTaskLabel", "set_task_label", 0, 0, cfErr))
					if wantDeny != replayDeny {
						t.Fatalf("exhaustion shape does not replay:\n exhausted: %s\n checkflow: %s", wantDeny, replayDeny)
					}
					if bl[div] != wantDeny {
						t.Fatalf("first divergent line is not the exhaustion denial\n got: %s\nwant: %s\n(unlimited had: %s)", bl[div], wantDeny, ul[div])
					}

					// Non-vacuity: the shared prefix itself contains real
					// denials, so the oracle compared enforcement, not
					// silence.
					verdicts := 0
					for _, line := range bl[:div] {
						if strings.Contains(line, "|") {
							verdicts++
						}
					}
					if verdicts < 1 && declass >= 4 {
						t.Logf("seed %d: prefix had no verdicts before exhaustion (script %v)", seed, ops)
					}
				})
			}
		})
	}
}

// ---- part 2: the peer cannot tell exhaustion from a capability denial ----

// budgetdiffRemoteRun drives M one-KiB chunks from a sender to a
// receiver over real TCP. The first keep chunks are deliverable; from
// chunk keep+1 on, the scenario makes them vanish — either the sender's
// per-(tag,peer) budget exhausts (budgeted=true) or the sender taints
// itself so its own kernel capability-denies the sends (budgeted=false).
// Returns (receiver transcript, sender transcript): the receiver's view
// must not depend on which scenario ran.
func budgetdiffRemoteRun(t *testing.T, bigLock, budgeted bool, keep, total int) (string, string) {
	t.Helper()
	var led *budget.Ledger
	if budgeted {
		led = budget.New()
	}
	a := budgetdiffBoot(t, bigLock, led)
	b := budgetdiffBoot(t, bigLock, nil)

	nodeA := netlabel.NewNode(netlabel.Config{Kernel: a.k, Module: a.mod, Recorder: a.rec, NodeID: 1})
	nodeB := netlabel.NewNode(netlabel.Config{Kernel: b.k, Module: b.mod, Recorder: b.rec, NodeID: 2})
	if err := nodeA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	defer nodeB.Close()

	recvLog := &verdictLog{}
	defer recvLog.attach(b.rec)()
	sendLog := &verdictLog{}

	t1, err := a.k.AllocTag(a.user)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted {
		// The budget is against the receiver's node id: the netlabel
		// drain charges (t1, peer=2) per started KiB.
		if err := led.SetLimit(t1, 2, uint64(keep)); err != nil {
			t.Fatal(err)
		}
	}

	labels := difc.Labels{S: difc.NewLabel(t1)}
	var fdA, fdB kernel.FD
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("labeled channel never established")
		}
		var oerr error
		fdA, oerr = nodeA.Open(a.user, nodeB.Addr(), labels)
		if oerr != nil {
			continue
		}
		got := difc.Labels{}
		var aerr error
		ok := false
		for i := 0; i < 400 && !ok; i++ {
			nodeA.Pump()
			nodeB.Pump()
			fdB, got, aerr = nodeB.Accept(b.user)
			if aerr == nil && got.Equal(labels) {
				ok = true
			}
			if !ok {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if ok {
			break
		}
	}

	// The receiving principal legitimately holds t1 (endorsed into the
	// label by its TCB); b.user stays unlabeled as the denied probe.
	reader, err := b.k.Spawn(b.k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.mod.AdoptTaskLabels(reader, labels)
	rfd, err := b.k.DupTo(b.user, fdB, reader)
	if err != nil {
		t.Fatal(err)
	}

	probe := func(tag string) {
		_, perr := b.k.Recv(b.user, fdB, make([]byte, 8))
		recvLog.note(fmt.Sprintf("probe %s err=%v", tag, perr != nil))
	}
	probe("pre")

	chunk := make([]byte, 1024)
	buf := make([]byte, 4096)
	for i := 1; i <= total; i++ {
		if !budgeted && i == keep+1 {
			// Capability world: the sender taints itself, so its own
			// kernel silently denies every further send on the t1
			// channel ({t1,t2} is not a subset of {t1}).
			t2, aerr := a.k.AllocTag(a.user)
			if aerr != nil {
				t.Fatal(aerr)
			}
			if serr := a.k.SetTaskLabel(a.user, kernel.Secrecy, difc.NewLabel(t2)); serr != nil {
				t.Fatal(serr)
			}
		}
		n, serr := a.k.Send(a.user, fdA, chunk)
		sendLog.note(fmt.Sprintf("send %d n=%d err=%v", i, n, serr != nil))

		got := 0
		if i <= keep {
			// Deliverable chunk: pump until it lands (fault-free TCP).
			dl := time.Now().Add(20 * time.Second)
			for got == 0 && time.Now().Before(dl) {
				nodeA.Pump()
				nodeB.Pump()
				if rn, rerr := b.k.Recv(reader, rfd, buf); rerr == nil && rn > 0 {
					got = rn
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		} else {
			// Post-cutoff chunk: give the transport every chance to
			// deliver what it must not, then look once more.
			for p := 0; p < 2000; p++ {
				nodeA.Pump()
				nodeB.Pump()
			}
			if rn, rerr := b.k.Recv(reader, rfd, buf); rerr == nil && rn > 0 {
				got = rn
			}
		}
		if got > 0 {
			recvLog.note(fmt.Sprintf("chunk %d: %d bytes", i, got))
		} else {
			recvLog.note(fmt.Sprintf("chunk %d: nothing", i))
		}
	}
	probe("post")
	return recvLog.dump(), sendLog.dump()
}

// TestBudgetPeerIndistinguishability: the receiver-side transcript
// (bytes observed, probe outcomes, receiver verdict stream) and the
// sender-visible return values are byte-identical whether the sender ran
// out of budget or ran into a capability denial.
func TestBudgetPeerIndistinguishability(t *testing.T) {
	for _, mode := range []struct {
		name    string
		bigLock bool
	}{{"sharded", false}, {"biglock", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			const keep, total = 3, 6
			recvBudget, sendBudget := budgetdiffRemoteRun(t, mode.bigLock, true, keep, total)
			recvCap, sendCap := budgetdiffRemoteRun(t, mode.bigLock, false, keep, total)
			if recvBudget != recvCap {
				t.Errorf("receiver can distinguish exhaustion from capability denial\n--- budget world\n%s\n--- capability world\n%s", recvBudget, recvCap)
			}
			if sendBudget != sendCap {
				t.Errorf("sender return values distinguish the worlds\n--- budget world\n%s\n--- capability world\n%s", sendBudget, sendCap)
			}
			// Non-vacuity: the first keep chunks actually arrived, and the
			// rest actually vanished.
			if !strings.Contains(recvBudget, fmt.Sprintf("chunk %d: %d bytes", keep, 1024)) {
				t.Fatalf("chunk %d never arrived; transport broken:\n%s", keep, recvBudget)
			}
			if !strings.Contains(recvBudget, fmt.Sprintf("chunk %d: nothing", total)) {
				t.Fatalf("chunk %d arrived despite exhausted budget:\n%s", total, recvBudget)
			}
		})
	}
}

// ---- part 3: crash mid-charge recovers fail closed -----------------------

// TestBudgetCrashRecoveryNeverUndercounts: 60 fault seeds x both lock
// modes. Charges flow through the real relabel path while budget.ckpt.*
// faults tear the shadow-write protocol; the ledger rebooted from the
// surviving store must account for every acknowledged charge.
func TestBudgetCrashRecoveryNeverUndercounts(t *testing.T) {
	for _, mode := range []struct {
		name    string
		bigLock bool
	}{{"sharded", false}, {"biglock", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					store := cluster.NewMemStore()
					plan := faultinject.NewPlan(seed)
					plan.SetRates("budget.ckpt.", faultinject.Rates{Error: 0.15, Crash: 0.10})
					led := budget.New(budget.WithStore(store), budget.WithInjector(plan))
					s := budgetdiffBoot(t, mode.bigLock, led)

					tag, err := s.k.AllocTag(s.user)
					if err != nil {
						t.Fatal(err)
					}
					led.SetLimit(tag, 0, 1_000_000) // persist may fault; in-memory fact stands

					acked, attempted := uint64(0), uint64(0)
					tainted := false
					for i := 0; i < 40; i++ {
						if !tainted {
							if err := s.k.SetTaskLabel(s.user, kernel.Secrecy, difc.NewLabel(tag)); err != nil {
								t.Fatalf("taint %d: %v", i, err)
							}
							tainted = true
						}
						attempted++
						if err := s.k.SetTaskLabel(s.user, kernel.Secrecy, difc.EmptyLabel); err == nil {
							acked++
							tainted = false
						}
						// A denied charge (injected persist fault) leaves the
						// task tainted; the next iteration retries the drop.
					}

					// Crash: abandon the kernel and the faulting ledger;
					// reboot a clean ledger from whatever the store holds.
					led2 := budget.New(budget.WithStore(store))
					f, ok := led2.Fact(tag, 0)
					if !ok {
						if acked > 0 {
							t.Fatalf("seed %d: %d acked charges but no recovered fact", seed, acked)
						}
						return
					}
					if f.Spent < acked {
						t.Fatalf("seed %d: recovered spent %d under-counts %d acked charges (attempted %d)", seed, f.Spent, acked, attempted)
					}
					if f.Spent != math.MaxUint64 && f.Spent > attempted {
						t.Fatalf("seed %d: recovered spent %d exceeds %d attempts", seed, f.Spent, attempted)
					}
					if f.Spent == math.MaxUint64 {
						// Quarantined: zero budget until a fresh SetLimit.
						if err := led2.Charge("probe", tag, 0, 1); err == nil {
							t.Fatalf("seed %d: quarantined fact allowed a charge", seed)
						}
					}
				})
			}
		})
	}
}
