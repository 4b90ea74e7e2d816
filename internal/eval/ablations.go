package eval

import (
	"fmt"
	"strings"
	"time"

	"laminar"
	"laminar/internal/dacapo"
	"laminar/internal/jvm"
)

// AblationReport measures the design decisions DESIGN.md calls out:
// lazy vs eager kernel-label synchronization (§4.4's optimization) and
// redundant-barrier elimination on/off (§5.1's optimization).
type AblationReport struct {
	// Lazy-sync ablation: time for n syscall-free regions, plus the
	// set_task_label syscall counts that explain the difference.
	LazyRegionNs  float64
	EagerRegionNs float64
	LazySyncs     uint64
	EagerSyncs    uint64

	// Redundant-barrier-elimination ablation, averaged over the dacapo
	// suite under static barriers.
	UnoptimizedChecks uint64
	OptimizedChecks   uint64
	UnoptimizedTime   time.Duration
	OptimizedTime     time.Duration
}

// Ablations runs both studies, timing each configuration as the best of
// trials runs (minTimeModes).
func Ablations(regions, jvmIters, trials int) (*AblationReport, error) {
	rep := &AblationReport{}

	// --- lazy vs eager kernel label sync ---
	sys := laminar.NewSystem()
	shell, err := sys.Login("ablate")
	if err != nil {
		return nil, err
	}
	vm, th, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	tag, err := th.CreateTag()
	if err != nil {
		return nil, err
	}
	labels := laminar.Labels{S: laminar.NewLabel(tag)}
	body := func(r *laminar.Region) {
		o := r.Alloc(nil)
		r.Set(o, "x", 1)
		r.Get(o, "x")
	}
	// The deterministic quantity — how many set_task_label syscalls each
	// policy issues — is recorded alongside the (noisier) wall time.
	best, err := minTimeModes(trials, regions, []bool{false, true}, func(eager bool, n int) (time.Duration, error) {
		vm.EagerSync = eager
		vm.Stats().LabelSyncs.Store(0)
		d := timeIt(func() {
			for i := 0; i < n; i++ {
				th.Secure(labels, laminar.EmptyCapSet, body, nil)
			}
		})
		if eager {
			rep.EagerSyncs = vm.Stats().LabelSyncs.Load()
		} else {
			rep.LazySyncs = vm.Stats().LabelSyncs.Load()
		}
		return d, nil
	})
	vm.EagerSync = false
	if err != nil {
		return nil, err
	}
	rep.LazyRegionNs = float64(best[false].Nanoseconds()) / float64(regions)
	rep.EagerRegionNs = float64(best[true].Nanoseconds()) / float64(regions)

	// --- redundant-barrier elimination ---
	var builds []func() (*jvm.Program, error)
	for _, m := range dacapo.Workloads {
		_, plain, err := dacapo.Run(m, jvmIters, jvm.CompileOptions{Mode: jvm.BarrierStatic})
		if err != nil {
			return nil, err
		}
		_, opt, err := dacapo.Run(m, jvmIters, jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true})
		if err != nil {
			return nil, err
		}
		rep.UnoptimizedChecks += plain.BarrierChecks
		rep.OptimizedChecks += opt.BarrierChecks
		builds = append(builds, func() (*jvm.Program, error) { return dacapo.Build(m) })
	}
	// Execution-only timing of the whole suite: jvmRunner compiles every
	// machine before the clock starts (compilation cost is the
	// compile-time experiment's subject, not this one's).
	cfgs := []jvm.CompileOptions{{Mode: jvm.BarrierStatic}, {Mode: jvm.BarrierStatic, Optimize: true}}
	run, err := jvmRunner(cfgs, builds...)
	if err != nil {
		return nil, err
	}
	suite, err := minTimeModes(trials, jvmIters, cfgs, run)
	if err != nil {
		return nil, err
	}
	rep.UnoptimizedTime, rep.OptimizedTime = suite[cfgs[0]], suite[cfgs[1]]
	return rep, nil
}

// Format renders both ablations.
func (r *AblationReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Ablation: lazy vs eager kernel label synchronization (§4.4)"))
	fmt.Fprintf(&b, "lazy  (sync only before syscalls): %8.0f ns/region, %d label syscalls\n", r.LazyRegionNs, r.LazySyncs)
	fmt.Fprintf(&b, "eager (sync at every entry/exit):  %8.0f ns/region, %d label syscalls\n", r.EagerRegionNs, r.EagerSyncs)
	if r.LazyRegionNs > 0 {
		fmt.Fprintf(&b, "eager/lazy ratio: %.2fx — the paper's VM \"omits setting the labels\n"+
			"in the kernel thread if the security region does not perform a system call\".\n",
			r.EagerRegionNs/r.LazyRegionNs)
	}
	b.WriteString("\n")
	b.WriteString(header("Ablation: redundant-barrier elimination (§5.1)"))
	fmt.Fprintf(&b, "dynamic checks without optimization: %d\n", r.UnoptimizedChecks)
	fmt.Fprintf(&b, "dynamic checks with optimization:    %d (%.1f%% removed)\n",
		r.OptimizedChecks,
		100*(1-float64(r.OptimizedChecks)/float64(r.UnoptimizedChecks)))
	fmt.Fprintf(&b, "suite time: %s -> %s\n", fmtDur(r.UnoptimizedTime), fmtDur(r.OptimizedTime))
	return b.String()
}
