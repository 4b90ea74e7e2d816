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

// Ablations runs both studies.
func Ablations(regions, jvmIters int) (*AblationReport, error) {
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
	// Interleave lazy and eager trials and keep each mode's minimum, so
	// drift hits both configurations equally. The deterministic quantity
	// — how many set_task_label syscalls each policy issues — is recorded
	// alongside the (noisier) wall time.
	var lazyBest, eagerBest time.Duration
	for trial := 0; trial < 7; trial++ {
		vm.EagerSync = false
		vm.Stats().LabelSyncs.Store(0)
		d := timeIt(func() {
			for i := 0; i < regions; i++ {
				th.Secure(labels, laminar.EmptyCapSet, body, nil)
			}
		})
		rep.LazySyncs = vm.Stats().LabelSyncs.Load()
		if trial == 0 || d < lazyBest {
			lazyBest = d
		}
		vm.EagerSync = true
		vm.Stats().LabelSyncs.Store(0)
		d = timeIt(func() {
			for i := 0; i < regions; i++ {
				th.Secure(labels, laminar.EmptyCapSet, body, nil)
			}
		})
		rep.EagerSyncs = vm.Stats().LabelSyncs.Load()
		if trial == 0 || d < eagerBest {
			eagerBest = d
		}
	}
	vm.EagerSync = false
	rep.LazyRegionNs = float64(lazyBest.Nanoseconds()) / float64(regions)
	rep.EagerRegionNs = float64(eagerBest.Nanoseconds()) / float64(regions)

	// --- redundant-barrier elimination ---
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
	}
	// Execution-only timing: compile both configurations up front, then
	// time the runs (compilation cost is the compile-time experiment's
	// subject, not this one's).
	type prepared struct {
		mc *jvm.Machine
		th *jvm.Thread
	}
	prep := func(optimize bool) ([]prepared, error) {
		out := make([]prepared, 0, len(dacapo.Workloads))
		for _, m := range dacapo.Workloads {
			prog, err := dacapo.Build(m)
			if err != nil {
				return nil, err
			}
			mc, err := jvm.NewMachine(prog, jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: optimize})
			if err != nil {
				return nil, err
			}
			th := mc.NewThread()
			if _, err := mc.Call(th, "run", jvm.IntV(4)); err != nil {
				return nil, err
			}
			out = append(out, prepared{mc, th})
		}
		return out, nil
	}
	plainMachines, err := prep(false)
	if err != nil {
		return nil, err
	}
	optMachines, err := prep(true)
	if err != nil {
		return nil, err
	}
	runAll := func(ms []prepared) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			start := time.Now()
			for _, pm := range ms {
				if _, err := pm.mc.Call(pm.th, "run", jvm.IntV(int64(jvmIters))); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
	}
	if rep.UnoptimizedTime, err = minTime(5, runAll(plainMachines)); err != nil {
		return nil, err
	}
	if rep.OptimizedTime, err = minTime(5, runAll(optMachines)); err != nil {
		return nil, err
	}
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
