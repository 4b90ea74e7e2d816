// Package chaos is the fault-injection harness for the Laminar
// reproduction: it boots a full system on a seeded fault plan, drives a
// randomized but fully deterministic workload of secret creation, attacker
// probes, pipe smuggling, panicking security regions, chat-transport
// traffic, capability churn and simulated reboots, and checks the
// invariants that must hold under ANY fault schedule:
//
//   - No DIFC-denied operation ever observably succeeds: an attacker
//     without capabilities never reads a byte of secret content, no matter
//     which faults fire.
//   - Denials on path operations are indistinguishable from nonexistence
//     (ENOENT, never EACCES — the errno covert channel).
//   - After any crash + recovery, every secret file is either correctly
//     labeled or quarantined (maximally restricted); never
//     unlabeled-readable.
//   - No live thread ends up outside a security region with the kernel
//     task still holding the region's secrecy label.
//   - Corrupted capability files can only shrink privilege, never mint it.
//
// Because every fault decision is a pure function of (seed, step) and the
// workload goroutine is single-threaded per seed, a failing seed replays
// the identical schedule byte-for-byte; the test harness runs many seeds
// in parallel under -race.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"laminar"
	"laminar/internal/apps/freecs"
	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// Config parameterizes one chaos run.
type Config struct {
	Seed int64
	Ops  int
	// Rates are the default fault rates for every injection site once
	// setup completes. Zero-value rates make the run fault-free (useful
	// as a workload sanity check).
	Rates faultinject.Rates
	// Record captures the fault schedule for failure reports.
	Record bool
	// BigLock runs the schedule on the serial big-lock kernel instead of
	// the default sharded one. The fault plan is a pure function of
	// (seed, step), so the same seed exercises the identical fault
	// schedule under both locking disciplines.
	BigLock bool
	// Recorder, when set, is attached to the run's kernel as its flight
	// recorder and is still live after the run: the caller can Snapshot,
	// Dump and Replay its ring. Give each run its own: the test harness
	// runs many seeds in parallel, and their rings must not interleave.
	Recorder *telemetry.Recorder
}

// Report is the outcome of a run.
type Report struct {
	Faults     int
	Violations []string
	Schedule   string
	Recovery   lsm.RecoveryStats
}

// secretFile tracks one fully written secret the attacker must never read.
type secretFile struct {
	path   string
	marker string
}

// run carries the state of one chaos execution.
type run struct {
	cfg  Config
	plan *faultinject.Plan
	sys  *laminar.System
	k    *kernel.Kernel
	mod  *lsm.Module
	rng  *rand.Rand

	secretTag difc.Tag
	secrets   []secretFile
	nfiles    int

	// owner is the principal holding the secret tag's capabilities;
	// attacker holds nothing. Either may be crash-killed by a fault and
	// respawned.
	owner    *kernel.Task
	attacker *kernel.Task

	// ownerThread exercises security regions.
	ownerThread *laminar.Thread

	// savedCaps accumulates every capability ever legitimately saved for
	// the churn user; loads must never exceed the union.
	savedCaps difc.CapSet

	srv      *freecs.Server
	listener *freecs.Listener
	client   *freecs.Client

	violations []string
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// Run executes one seeded chaos schedule and reports the outcome.
func Run(cfg Config) Report {
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	r := &run{
		cfg:  cfg,
		plan: faultinject.NewPlan(cfg.Seed),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Record {
		r.plan.Record()
	}
	var opts []kernel.Option
	if cfg.BigLock {
		opts = append(opts, kernel.WithBigLock())
	}
	if cfg.Recorder != nil {
		opts = append(opts, kernel.WithTelemetry(cfg.Recorder))
	}
	r.sys = laminar.NewSystemWithInjector(r.plan, opts...)
	r.k = r.sys.Kernel()
	r.mod = r.sys.Module()

	// Fault-free setup: principals, the secret tag, the chat server. The
	// plan's rates are zero until setup completes, modeling faults that
	// start once the system is in steady state.
	r.setup()

	r.plan.SetDefaultRates(cfg.Rates)
	// The tcb label-sync path may fail but not crash-kill on its own
	// stream: crashes there kill the VM main thread so often that runs
	// degenerate into pure respawn loops. Error faults still exercise the
	// fail-closed region entry/exit paths.
	r.plan.SetRates("rt.sync", faultinject.Rates{Error: cfg.Rates.Error, Delay: cfg.Rates.Delay})

	for i := 0; i < cfg.Ops; i++ {
		r.respawnDead()
		switch r.rng.Intn(8) {
		case 0, 1:
			r.opCreateSecret()
		case 2:
			r.opAttackerProbe()
		case 3:
			r.opPipeSmuggle()
		case 4:
			r.opRegionPanic()
		case 5:
			r.opChat()
		case 6:
			r.opCapsChurn()
		case 7:
			r.opReboot()
		}
	}

	// Final reboot: recovery must leave every secret denied to the
	// attacker and every surviving thread label-clean.
	recStats := r.mod.RecoverLabels(r.k)
	r.finalInvariants()

	report := Report{
		Faults:     len(r.plan.Decisions()),
		Violations: r.violations,
		Recovery:   recStats,
	}
	if cfg.Record {
		report.Schedule = r.plan.Schedule()
	}
	return report
}

func (r *run) setup() {
	var err error
	if r.owner, err = r.sys.Login("owner"); err != nil {
		panic(fmt.Sprintf("chaos setup: login owner: %v", err))
	}
	if r.attacker, err = r.sys.Login("attacker"); err != nil {
		panic(fmt.Sprintf("chaos setup: login attacker: %v", err))
	}
	if r.secretTag, err = r.k.AllocTag(r.owner); err != nil {
		panic(fmt.Sprintf("chaos setup: alloc tag: %v", err))
	}
	if _, r.ownerThread, err = r.sys.LaunchVM(r.owner); err != nil {
		panic(fmt.Sprintf("chaos setup: launch vm: %v", err))
	}
	r.ownerThread.GrantCapability(r.secretTag, difc.CapBoth)
	if r.srv, err = freecs.NewServer(r.sys); err != nil {
		panic(fmt.Sprintf("chaos setup: chat server: %v", err))
	}
	if r.listener, err = r.srv.ListenAndServe("chaos.chat"); err != nil {
		panic(fmt.Sprintf("chaos setup: chat listener: %v", err))
	}
}

// respawnDead replaces crash-killed actors. A fresh principal receives the
// capabilities the old one held through the trusted setup path — the
// harness is the "operator" re-provisioning after a crash.
func (r *run) respawnDead() {
	if r.owner == nil || r.owner.Exited() {
		if t, err := r.sys.Login("owner"); err == nil {
			r.owner = t
			r.mod.GrantCapability(t, r.secretTag, difc.CapBoth)
		}
	}
	if r.attacker == nil || r.attacker.Exited() {
		if t, err := r.sys.Login("attacker"); err == nil {
			r.attacker = t
		}
	}
	if r.ownerThread == nil || r.ownerThread.Task().Exited() {
		if r.owner != nil && !r.owner.Exited() {
			if _, th, err := r.sys.LaunchVM(r.owner); err == nil {
				r.ownerThread = th
				th.GrantCapability(r.secretTag, difc.CapBoth)
			}
		}
	}
	if r.client == nil || !r.client.Alive() {
		r.client = nil
		if c, err := freecs.Dial(r.sys, "chaos.chat"); err == nil {
			r.client = c
		}
	}
}

func (r *run) secretLabels() difc.Labels {
	return difc.Labels{S: difc.NewLabel(r.secretTag)}
}

// opCreateSecret creates a labeled file and fills it with a marker. Only a
// fully acknowledged write is tracked: a torn or failed write may leave
// partial marker bytes, but then the create/write path reported an error
// and the file is not part of the attacker-must-not-read set. (Even torn
// files stay labeled or quarantined — opAttackerProbe checks tracked files
// and the final sweep re-checks everything.)
func (r *run) opCreateSecret() {
	if r.owner == nil || r.owner.Exited() {
		return
	}
	r.nfiles++
	path := fmt.Sprintf("/home/owner/s%d", r.nfiles)
	marker := fmt.Sprintf("MARKER-%d-%d", r.cfg.Seed, r.nfiles)
	fd, err := r.k.CreateFileLabeled(r.owner, path, 0o600, r.secretLabels())
	if err != nil {
		return
	}
	defer r.k.Close(r.owner, fd)
	if _, err := r.k.Write(r.owner, fd, []byte(marker)); err != nil {
		return
	}
	r.secrets = append(r.secrets, secretFile{path: path, marker: marker})
}

// opAttackerProbe has the attacker try to reach a tracked secret through
// every path the kernel offers. Any marker byte observed, or any denial
// that leaks existence (EACCES instead of ENOENT on a path op), is a
// violation.
func (r *run) opAttackerProbe() {
	if r.attacker == nil || r.attacker.Exited() || len(r.secrets) == 0 {
		return
	}
	s := r.secrets[r.rng.Intn(len(r.secrets))]
	r.probeSecret(s, "probe")
}

func (r *run) probeSecret(s secretFile, ctx string) {
	at := r.attacker
	if at == nil || at.Exited() {
		return
	}
	if _, err := r.k.Stat(at, s.path); err == nil {
		r.violate("%s: attacker Stat(%s) succeeded", ctx, s.path)
	} else if errors.Is(err, kernel.ErrAccess) {
		r.violate("%s: attacker Stat(%s) leaked existence: %v", ctx, s.path, err)
	}
	fd, err := r.k.Open(at, s.path, kernel.ORead)
	if err == nil {
		buf := make([]byte, 256)
		if n, rerr := r.k.Read(at, fd, buf); rerr == nil && n > 0 {
			r.violate("%s: attacker read %q from %s", ctx, buf[:n], s.path)
		} else {
			r.violate("%s: attacker Open(%s) succeeded", ctx, s.path)
		}
		r.k.Close(at, fd)
	} else if errors.Is(err, kernel.ErrAccess) {
		r.violate("%s: attacker Open(%s) leaked existence: %v", ctx, s.path, err)
	}
	if err := r.k.Unlink(at, s.path); err == nil {
		r.violate("%s: attacker Unlink(%s) succeeded", ctx, s.path)
	} else if errors.Is(err, kernel.ErrAccess) && !errors.Is(err, kernel.ErrAccessRead) {
		// Write-denied unlink would be EACCES only if the attacker could
		// already read the containing directory — it cannot, because the
		// home is admin-integrity... it is not; reads of /home/owner are
		// unlabeled. The lookup of the secret file itself is what denies,
		// and that must be ENOENT.
		r.violate("%s: attacker Unlink(%s) leaked existence: %v", ctx, s.path, err)
	}
}

// opPipeSmuggle taints the owner, writes a secret into a pipe, hands the
// read end to the attacker, and verifies the attacker cannot extract it:
// the pipe inode carries the owner's taint.
func (r *run) opPipeSmuggle() {
	if r.owner == nil || r.owner.Exited() || r.attacker == nil || r.attacker.Exited() {
		return
	}
	if err := r.k.SetTaskLabel(r.owner, kernel.Secrecy, difc.NewLabel(r.secretTag)); err != nil {
		return
	}
	// Whatever happens below, try to shed the taint before returning; a
	// failed drop leaves the owner tainted (safe — more restricted), and
	// the next op that needs an untainted owner will try again.
	defer func() {
		_ = r.k.SetTaskLabel(r.owner, kernel.Secrecy, difc.EmptyLabel)
	}()
	rfd, wfd, err := r.k.Pipe(r.owner)
	if err != nil {
		return
	}
	defer r.k.Close(r.owner, rfd)
	defer r.k.Close(r.owner, wfd)
	marker := fmt.Sprintf("PIPE-MARKER-%d", r.cfg.Seed)
	if _, err := r.k.Write(r.owner, wfd, []byte(marker)); err != nil {
		return
	}
	afd, err := r.k.DupTo(r.owner, rfd, r.attacker)
	if err != nil {
		return
	}
	defer r.k.Close(r.attacker, afd)
	buf := make([]byte, 64)
	if n, err := r.k.Read(r.attacker, afd, buf); err == nil && n > 0 {
		r.violate("pipe: attacker read %q from tainted pipe", buf[:n])
	}
}

// opRegionPanic runs security regions whose bodies fail in assorted ways —
// including panicking with a non-*Violation value from a nested region —
// and verifies the thread always comes back label-clean (or dead).
func (r *run) opRegionPanic() {
	th := r.ownerThread
	if th == nil || th.Task().Exited() {
		return
	}
	labels := r.secretLabels()
	caps := difc.NewCapSet(difc.NewLabel(r.secretTag), difc.NewLabel(r.secretTag))
	mode := r.rng.Intn(3)
	_ = th.Secure(labels, caps, func(reg *laminar.Region) {
		switch mode {
		case 0:
			// Touch the kernel so labels sync, then panic with a plain
			// value (not a *Violation).
			fd, err := r.k.Open(th.Task(), "/home/owner", kernel.ORead)
			if err == nil {
				r.k.Close(th.Task(), fd)
			}
			panic("chaos: plain panic inside region")
		case 1:
			// Nested region whose body panics with a non-*Violation
			// value; the inner exit must restore the outer labels before
			// the outer exit restores empty.
			_ = th.Secure(labels, caps, func(inner *laminar.Region) {
				panic(fmt.Errorf("chaos: error panic in nested region"))
			}, nil)
		default:
			// Plain body; exercise the non-panicking exit path too.
		}
	}, nil)
	if th.Task().Exited() {
		return // fail-closed exit killed the principal: acceptable
	}
	if got := r.mod.TaskLabels(th.Task()); got.S.Has(r.secretTag) {
		r.violate("region: thread kernel task still tainted %v after region exit", got)
	}
	if got := th.Labels(); !got.IsEmpty() {
		r.violate("region: thread VM labels %v nonempty after region exit", got)
	}
}

// opChat drives the FreeCS transport: the client logs in as a guest,
// chats, and tries to BAN — which must always be denied, faults or not.
func (r *run) opChat() {
	if r.client == nil || r.listener == nil {
		return
	}
	_ = r.client.Send("LOGIN guest" + fmt.Sprint(r.rng.Intn(1000)) + " guest\nSAY lobby hello\nBAN lobby victim\n")
	for i := 0; i < 4; i++ {
		r.listener.Pump()
	}
	for r.client.Recv() != "" {
		// Drain replies; their delivery is fault-dependent, so the
		// security check below goes through the API, not the wire.
	}
	// A guest can never ban, under any fault schedule: injected hook
	// errors deny, they never approve.
	if u, err := r.srv.Login(fmt.Sprintf("g%d", r.rng.Intn(1000)), freecs.RoleGuest); err == nil {
		if err := r.srv.Ban(u, "lobby", "victim"); err == nil {
			r.violate("chat: guest Ban succeeded")
		}
		r.srv.Logout(u)
	}
}

// opCapsChurn saves and reloads capability files under faults. Loads must
// never mint capabilities that were never saved.
func (r *run) opCapsChurn() {
	tag := r.secretTag
	caps := difc.NewCapSet(difc.NewLabel(tag), difc.EmptyLabel)
	if r.rng.Intn(2) == 0 {
		caps = difc.NewCapSet(difc.NewLabel(tag), difc.NewLabel(tag))
	}
	if err := r.sys.SaveUserCaps("churn", caps); err == nil {
		r.savedCaps = r.savedCaps.Union(caps)
	} else {
		// Even a failed save may have written a (valid or torn) copy of
		// exactly these capabilities; account for them in the union.
		r.savedCaps = r.savedCaps.Union(caps)
	}
	loaded, err := r.mod.LoadUserCaps(r.k, r.k.InitTask(), "churn")
	if err != nil {
		return
	}
	if !loaded.Plus().SubsetOf(r.savedCaps.Plus()) || !loaded.Minus().SubsetOf(r.savedCaps.Minus()) {
		r.violate("caps: loaded %v exceeds everything ever saved %v", loaded, r.savedCaps)
	}
}

// opReboot simulates a crash+reboot: all in-memory label state is dropped
// and rebuilt from persistent records, then the attacker re-probes a few
// secrets.
func (r *run) opReboot() {
	r.mod.RecoverLabels(r.k)
	for i := 0; i < 3 && len(r.secrets) > 0; i++ {
		s := r.secrets[r.rng.Intn(len(r.secrets))]
		r.probeSecret(s, "post-reboot probe")
	}
}

// finalInvariants sweeps every tracked secret after the final recovery:
// the attacker must be denied everywhere, and the rightful owner must see
// either the exact marker (correct labels) or a denial (quarantine) —
// never wrong bytes under a readable label.
func (r *run) finalInvariants() {
	r.respawnDead()
	for _, s := range r.secrets {
		r.probeSecret(s, "final sweep")
	}
	if r.owner == nil || r.owner.Exited() {
		return
	}
	if err := r.k.SetTaskLabel(r.owner, kernel.Secrecy, difc.NewLabel(r.secretTag)); err != nil {
		return
	}
	defer func() { _ = r.k.SetTaskLabel(r.owner, kernel.Secrecy, difc.EmptyLabel) }()
	for _, s := range r.secrets {
		fd, err := r.k.Open(r.owner, s.path, kernel.ORead)
		if err != nil {
			continue // quarantined or deleted: restricted is acceptable
		}
		buf := make([]byte, 256)
		n, rerr := r.k.Read(r.owner, fd, buf)
		r.k.Close(r.owner, fd)
		if rerr == nil && n > 0 && string(buf[:n]) != s.marker {
			r.violate("final: %s readable with wrong content %q (want %q)", s.path, buf[:n], s.marker)
		}
	}
}
