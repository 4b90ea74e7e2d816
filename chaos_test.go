package laminar_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"laminar/internal/chaos"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// chaosRates is the mixed fault cocktail the seeded schedules run under:
// errors, crashes and delays all active, frequent enough that a 200-op run
// sees dozens of faults.
var chaosRates = faultinject.Rates{Error: 0.02, Crash: 0.004, Delay: 0.02}

// TestChaos runs many distinct seeded fault schedules concurrently (each
// schedule is single-threaded; the parallelism across seeds is what -race
// observes) and requires zero invariant violations on every one, under
// BOTH locking disciplines: the default sharded kernel and the serial
// big-lock kernel. On failure it logs the seed and the byte-for-byte
// reproducible fault schedule.
func TestChaos(t *testing.T) {
	const seeds = 60
	for _, mode := range []struct {
		name    string
		bigLock bool
	}{{"sharded", false}, {"biglock", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				seed := seed
				t.Run("", func(t *testing.T) {
					t.Parallel()
					rep := chaos.Run(chaos.Config{
						Seed:    seed,
						Ops:     200,
						Rates:   chaosRates,
						Record:  true,
						BigLock: mode.bigLock,
					})
					if len(rep.Violations) > 0 {
						t.Errorf("seed %d (%s): %d invariant violations:", seed, mode.name, len(rep.Violations))
						for _, v := range rep.Violations {
							t.Errorf("  %s", v)
						}
						t.Logf("reproduce with: go run ./cmd/laminar-chaos -seed %d -ops 200", seed)
						t.Logf("fault schedule:\n%s", rep.Schedule)
					}
				})
			}
		})
	}
}

// TestChaosSmoke is the fixed-seed run CI executes on every push: one
// schedule, deterministic, fast, with the full invariant sweep.
func TestChaosSmoke(t *testing.T) {
	rep := chaos.Run(chaos.Config{Seed: 42, Ops: 300, Rates: chaosRates, Record: true})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Logf("fault schedule:\n%s", rep.Schedule)
	}
	if rep.Faults == 0 {
		t.Fatalf("smoke schedule injected no faults; rates not wired through")
	}
}

// TestChaosReproducible verifies the tentpole's core promise: the same
// seed yields the byte-for-byte identical fault schedule and the same
// violation set on every run.
func TestChaosReproducible(t *testing.T) {
	cfg := chaos.Config{Seed: 7, Ops: 150, Rates: chaosRates, Record: true}
	a := chaos.Run(cfg)
	b := chaos.Run(cfg)
	if a.Schedule != b.Schedule {
		t.Fatalf("same seed produced different schedules:\n--- run 1\n%s\n--- run 2\n%s", a.Schedule, b.Schedule)
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("same seed produced different violations: %v vs %v", a.Violations, b.Violations)
	}
	if a.Faults != b.Faults {
		t.Fatalf("same seed produced different fault counts: %d vs %d", a.Faults, b.Faults)
	}
}

// runRecorded runs cfg with its own flight recorder at LevelDeny and
// returns the recorder with the report.
func runRecorded(cfg chaos.Config) (chaos.Report, *telemetry.Recorder) {
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	cfg.Recorder = rec
	return chaos.Run(cfg), rec
}

// TestChaosFlightRecorder asserts the tentpole's postmortem story under
// chaos, and acts as a third differential oracle alongside PR 2's:
//
//  1. The flight recorder survives a crash-heavy schedule: injected
//     crash-kills tear down tasks mid-syscall, yet the ring still holds a
//     coherent, Seq-ordered denial stream at the end.
//  2. The dumped ring replays deterministically: every policy denial in
//     the dump, re-checked against the pure difc rules (the same serial
//     checks the big-lock kernel runs), reproduces the recorded verdict.
//  3. Sharded vs WithBigLock(): the same seed produces the identical
//     denial stream (site, op, rule, tag delta) under both locking
//     disciplines — telemetry provenance is lock-schedule-invariant.
func TestChaosFlightRecorder(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			cfg := chaos.Config{Seed: seed, Ops: 200, Rates: chaosRates, Record: true}
			shard, shardRec := runRecorded(cfg)
			cfg.BigLock = true
			_, bigRec := runRecorded(cfg)

			if shard.Faults == 0 {
				t.Fatal("schedule injected no faults; crash survival proves nothing")
			}

			// (1) Ring survived: events present, totally ordered by Seq.
			events := shardRec.Snapshot()
			if len(events) == 0 {
				t.Fatal("flight ring empty after chaos run")
			}
			for i := 1; i < len(events); i++ {
				if events[i].Seq <= events[i-1].Seq {
					t.Fatalf("ring order broken at %d: seq %d after %d", i, events[i].Seq, events[i-1].Seq)
				}
			}

			// (2) Dump → read back → replay. Every replayable policy denial
			// must reproduce its recorded verdict from the dump alone.
			var buf bytes.Buffer
			if err := shardRec.Dump(&buf); err != nil {
				t.Fatal(err)
			}
			dumped, err := telemetry.ReadDump(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(dumped) != len(events) {
				t.Fatalf("dump round trip lost events: %d -> %d", len(events), len(dumped))
			}
			replayed := 0
			for _, e := range dumped {
				if e.Kind != telemetry.KindDeny || e.Rule == telemetry.RuleFault || e.Rule == telemetry.RuleNone {
					continue // fault-closed and unstructured denials have no pure check to re-run
				}
				res := telemetry.Replay(e)
				if !res.Replayable {
					continue
				}
				replayed++
				if !res.Denied || !res.Matches {
					t.Errorf("dumped denial does not replay: %s\n%s", e.String(), telemetry.Explain(e))
				}
			}
			if replayed == 0 {
				t.Error("no policy denial was replayable; oracle exercised nothing")
			}

			// (3) Same seed, big-lock kernel: identical denial provenance.
			key := func(e telemetry.Event) string {
				return fmt.Sprintf("%s|%s|%s|%v", e.Site, e.Op, e.Rule, e.Delta)
			}
			sd, bd := shardRec.Denials(), bigRec.Denials()
			if len(sd) != len(bd) {
				t.Fatalf("denial streams diverge: sharded %d, biglock %d", len(sd), len(bd))
			}
			for i := range sd {
				if key(sd[i]) != key(bd[i]) {
					t.Errorf("denial %d diverges across locking disciplines:\n  sharded: %s\n  biglock: %s", i, key(sd[i]), key(bd[i]))
				}
			}
		})
	}
}

// TestChaosVerdictCacheOracle is the chaos matrix's verdict oracle. It
// once compared a per-task verdict cache against uncached checks; the
// LSM now re-derives every verdict from the task's and the object's
// labels, so it checks that property directly. For every seed, under
// both locking disciplines, the schedule is run twice: the fault
// schedule and the denial stream — (site, op, rule, tag delta) at every
// position — must be identical, there must be zero invariant violations,
// and every replayable recorded denial must reproduce its verdict when
// re-checked against the pure difc rules from its recorded labels alone.
func TestChaosVerdictCacheOracle(t *testing.T) {
	const seeds = 60
	var replayed atomic.Int64
	key := func(e telemetry.Event) string {
		return fmt.Sprintf("%s|%s|%s|%v", e.Site, e.Op, e.Rule, e.Delta)
	}
	t.Run("matrix", func(t *testing.T) {
		for _, mode := range []struct {
			name    string
			bigLock bool
		}{{"sharded", false}, {"biglock", true}} {
			mode := mode
			t.Run(mode.name, func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					seed := seed
					t.Run("", func(t *testing.T) {
						t.Parallel()
						cfg := chaos.Config{
							Seed:    seed,
							Ops:     200,
							Rates:   chaosRates,
							Record:  true,
							BigLock: mode.bigLock,
						}
						first, firstRec := runRecorded(cfg)
						again, againRec := runRecorded(cfg)

						if len(first.Violations) > 0 {
							t.Errorf("seed %d (%s): %d invariant violations:", seed, mode.name, len(first.Violations))
							for _, v := range first.Violations {
								t.Errorf("  %s", v)
							}
							t.Logf("fault schedule:\n%s", first.Schedule)
						}
						if first.Schedule != again.Schedule {
							t.Errorf("seed %d (%s): fault schedule diverges on re-run", seed, mode.name)
						}
						fd, ad := firstRec.Denials(), againRec.Denials()
						if len(fd) != len(ad) {
							t.Fatalf("seed %d (%s): verdict streams diverge: first run %d denials, re-run %d",
								seed, mode.name, len(fd), len(ad))
						}
						for i := range fd {
							if key(fd[i]) != key(ad[i]) {
								t.Errorf("seed %d (%s): denial %d diverges:\n  first:  %s\n  re-run: %s",
									seed, mode.name, i, key(fd[i]), key(ad[i]))
							}
						}
						for _, e := range fd {
							res := telemetry.Replay(e)
							if !res.Replayable {
								continue
							}
							replayed.Add(1)
							if !res.Denied || !res.Matches {
								t.Errorf("seed %d (%s): recorded denial does not re-derive: %s\n%s",
									seed, mode.name, e.String(), telemetry.Explain(e))
							}
						}
					})
				}
			})
		}
	})
	// Non-vacuity: the matrix must have re-derived some recorded
	// denials, or the replay half proved nothing.
	if replayed.Load() == 0 {
		t.Error("no recorded denial was replayable across the whole matrix; oracle is vacuous")
	}
}

// TestChaosFaultFree runs the workload with zero fault rates: the
// invariants must hold trivially, proving the workload itself is sound.
func TestChaosFaultFree(t *testing.T) {
	rep := chaos.Run(chaos.Config{Seed: 3, Ops: 200})
	if len(rep.Violations) > 0 {
		t.Fatalf("violations with no faults injected: %v", rep.Violations)
	}
	if rep.Faults != 0 {
		t.Fatalf("fault-free run reported %d faults", rep.Faults)
	}
}
