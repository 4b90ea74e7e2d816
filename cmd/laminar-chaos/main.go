// Command laminar-chaos replays seeded fault-injection schedules against
// the full system — kernel, LSM, label persistence, runtime and the FreeCS
// chat transport — and reports any DIFC invariant violations. The same
// seed always produces the byte-for-byte identical schedule, so a failing
// seed printed by the chaos tests reproduces exactly:
//
//	go run ./cmd/laminar-chaos -seed 17 -ops 200
//
// Exit status is 1 when any schedule violates an invariant.
package main

import (
	"flag"
	"fmt"
	"os"

	"laminar/internal/chaos"
	"laminar/internal/faultinject"
)

func main() {
	var (
		seed    = flag.Int64("seed", 0, "run exactly this one seed (0 = run -seeds many, starting at 1)")
		seeds   = flag.Int("seeds", 50, "number of consecutive seeds to run when -seed is 0")
		ops     = flag.Int("ops", 200, "workload operations per schedule")
		errR    = flag.Float64("error-rate", 0.02, "probability an injection site returns an error")
		crashR  = flag.Float64("crash-rate", 0.004, "probability an injection site crash-kills the acting task")
		delayR  = flag.Float64("delay-rate", 0.02, "probability an injection site yields the scheduler")
		verb    = flag.Bool("v", false, "print the fault schedule of every run, not just failures")
		bigLock = flag.Bool("biglock", false, "run on the serial big-lock kernel instead of the sharded one")
	)
	flag.Parse()

	rates := faultinject.Rates{Error: *errR, Crash: *crashR, Delay: *delayR}
	lo, hi := int64(1), int64(*seeds)
	if *seed != 0 {
		lo, hi = *seed, *seed
	}

	failed := 0
	for s := lo; s <= hi; s++ {
		rep := chaos.Run(chaos.Config{Seed: s, Ops: *ops, Rates: rates, Record: true, BigLock: *bigLock})
		status := "ok"
		if len(rep.Violations) > 0 {
			status = "FAIL"
			failed++
		}
		fmt.Printf("seed %-4d %s  faults=%d recovery={clean:%d rolled-forward:%d quarantined:%d}\n",
			s, status, rep.Faults, rep.Recovery.Clean, rep.Recovery.RolledForward, rep.Recovery.Quarantined)
		for _, v := range rep.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		if *verb || len(rep.Violations) > 0 {
			fmt.Printf("  schedule:\n%s", indent(rep.Schedule))
		}
	}
	if failed > 0 {
		fmt.Printf("%d/%d schedules violated invariants\n", failed, hi-lo+1)
		os.Exit(1)
	}
}

func indent(s string) string {
	out := ""
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out += "    " + s[:i] + "\n"
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
