package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"laminar/internal/budget"
	"laminar/internal/difc"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops > 0 replaces the timed phase with exactly ops measured requests
	// in two windows, so that tests can compare counts run against run.
	ops int
	// warmup and setups override the workload's defaults when positive.
	warmup, setups int
	// corruptAt >= 0 makes the shadow model wrong just before that
	// measured request, to prove that the checker notices.
	corruptAt int
}

// workload is one system under test together with its shadow model.
// A single goroutine drives each instance.
type workload interface {
	// step issues one request and reports whether the system's answer
	// matched the model. An error means the run cannot go on.
	step(tr *tracer) (bool, error)
	// read fills the instance's layer counters into c.
	read(c *counters)
	// corrupt makes the shadow model disagree with the system.
	corrupt()
	// verify sweeps the final system state against the model.
	verify() error
	// trail digests every request issued so far.
	trail() uint64
	close()
}

type spec struct {
	build func(seed int64) (workload, error)
	// warmup requests run untimed before measuring, so that caches fill
	// and lazy set-up finishes; set-up is repeated setups times for its
	// median.
	warmup, setups int
	sizes          map[string]int
}

var specs = map[string]spec{
	"gradesheet": {newGradesheet, 20000, 9, gradesheetSizes()},
	"file-churn": {newFileChurn, 5000, 9, fileChurnSizes},
	"net-relay":  {newNetRelay, 2000, 9, netRelaySizes},
}

// counter indexes the public counters read at every window boundary.
type counter int

const (
	cRegions     counter = iota // rt: regions entered
	cBarriers                   // rt: read, write and alloc barriers
	cRegionNanos                // rt: time inside outermost regions
	cHooks                      // kernel/lsm: security hooks, all kernels
	cBudgetUnits                // budget: units spent, all ledgers
	cTransitions                // cluster: failure-detector state changes
	cTicks                      // cluster: Tick calls, all nodes
	cFlowHits                   // difc: subset flow cache
	cFlowMisses
	cFlowEvictions
	cInternHits // difc: label intern table
	cInternMisses
	cVerdictHits // difc: per-task verdict caches
	cVerdictMisses
	cMallocs // Go runtime
	cAllocBytes
	cGCs
	nCounters
)

type counters [nCounters]uint64

func snapshot(w workload) counters {
	var c counters
	w.read(&c)
	c[cFlowHits], c[cFlowMisses], c[cFlowEvictions] = difc.FlowCacheStats()
	c[cInternHits], c[cInternMisses] = difc.InternStats()
	c[cVerdictHits], c[cVerdictMisses], _ = difc.VerdictCacheStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes], c[cGCs] = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	return c
}

func (c *counters) addDiff(before, after counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// spent sums the units charged to a ledger.
func spent(led *budget.Ledger) uint64 {
	var n uint64
	for _, f := range led.Snapshot() {
		n += f.Spent
	}
	return n
}

// window is one slice of the measured phase.
type window struct {
	traced      bool
	ops, failed int
	ns          int64   // wall time
	cpuNs       int64   // CPU time of the client's thread
	procCPUNs   int64   // CPU time of the whole process
	p50, p99    float64 // request latency percentiles, µs
	delta       counters
}

func (w *window) throughput() float64 { return float64(w.ops) / (float64(w.ns) / 1e9) }

// cpuShare is the client thread's CPU time over the window's wall time.
func (w *window) cpuShare() float64 { return ratio(float64(w.cpuNs), float64(w.ns)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's result plus what the run record keeps beside it.
type outcome struct {
	res      result
	setupS   []float64
	warmup   int
	trail    uint64
	problems []string
	tr       *tracer
	load     hostLoad
	wins     []window
}

// hostLoad records how much CPU the host gave the process while it
// measured. On a shared host another tenant's load can halve throughput
// between two runs of the same code; these figures in the run record tell
// such a run apart from a change in the code.
type hostLoad struct {
	// CPUShare is the process's CPU time over wall time in the measured
	// phase: about 1 for a closed loop that is never descheduled, a little
	// more with the GC's background work, well below 1 when it waits for a
	// CPU.
	CPUShare float64 `json:"cpu_share"`
	// SteadyWindows counts the untraced windows the end-to-end figures
	// come from; see steadyWindows.
	SteadyWindows int `json:"steady_windows"`
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// cpuTime is the user and system CPU time of the process (who is
// syscall.RUSAGE_SELF) or of the calling thread (rusageThread). With
// paravirtual time accounting, time the hypervisor steals is not counted.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(who, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(cfg config) (*outcome, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	setups, warmup := sp.setups, sp.warmup
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	if cfg.warmup > 0 {
		warmup = cfg.warmup
	}
	o := &outcome{tr: newTracer(), warmup: warmup}
	// The client is one goroutine on one thread, so that the thread's CPU
	// time is the client's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var w workload
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = sp.build(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	tr := o.tr
	for i := 0; i < warmup; i++ {
		ok, err := w.step(tr)
		if err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if !ok {
			o.problems = append(o.problems, fmt.Sprintf("warm-up request %d disagreed with the model", i))
		}
	}

	wins, perWin, length := plan(cfg)
	lat := make([]int64, 0, 1<<16)
	op := 0
	cpu0, wall0 := cpuTime(syscall.RUSAGE_SELF), time.Now()
	for i := range wins {
		win := &wins[i]
		win.traced = cfg.trace && i%2 == 1
		before := snapshot(w)
		tr.on = win.traced
		lat = lat[:0]
		tcpu, pcpu := cpuTime(rusageThread), cpuTime(syscall.RUSAGE_SELF)
		start := tr.now()
		deadline := start + int64(length)
		for {
			if op == cfg.corruptAt {
				w.corrupt()
			}
			t0 := tr.now()
			ok, err := w.step(tr)
			t1 := tr.now()
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", op, err)
			}
			op++
			tr.request(t0, t1)
			lat = append(lat, t1-t0)
			win.ops++
			if !ok {
				win.failed++
			}
			if (perWin > 0 && win.ops == perWin) || (perWin == 0 && t1 >= deadline) {
				break
			}
		}
		win.ns = tr.now() - start
		win.cpuNs = int64(cpuTime(rusageThread) - tcpu)
		win.procCPUNs = int64(cpuTime(syscall.RUSAGE_SELF) - pcpu)
		tr.on = false
		win.delta.addDiff(before, snapshot(w))
		win.p50, win.p99 = percentile(lat, 0.50)/1e3, percentile(lat, 0.99)/1e3
		o.res.Attempted += win.ops
		o.res.Failed += win.failed
	}
	o.wins = wins
	o.load.CPUShare = ratio(float64(cpuTime(syscall.RUSAGE_SELF)-cpu0), float64(time.Since(wall0)))
	o.trail = w.trail()
	if err := w.verify(); err != nil {
		o.problems = append(o.problems, "final sweep: "+err.Error())
	}
	o.res.Correct = o.res.Failed == 0 && len(o.problems) == 0

	if cfg.trace {
		o.res.Metrics = perLayer(wins, tr, o.res.Attempted, o.res.Failed)
		return o, nil
	}
	lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steady := steadyWindows(wins)
	o.load.SteadyWindows = len(steady)
	o.res.Metrics = endToEnd(steady, o.setupS, ms.HeapAlloc)
	return o, nil
}

// plan splits the measured phase into half-second windows, or into two
// windows of a fixed request count when cfg.ops is set.
func plan(cfg config) (wins []window, perWin int, length time.Duration) {
	if cfg.ops > 0 {
		return make([]window, 2), (cfg.ops + 1) / 2, 0
	}
	n := 2 * int(math.Round(cfg.seconds))
	if n < 2 {
		n = 2
	}
	return make([]window, n), 0, time.Duration(cfg.seconds * float64(time.Second) / float64(n))
}

// steadyWindows returns the quarter of the untraced windows in which the
// client's thread ran for the largest share of the wall time. A shared
// host's hypervisor takes the CPU away for seconds at a time, and the
// guest does not count that time as the thread's CPU time, so these are
// the windows the host disturbed least. The run record keeps each share.
func steadyWindows(wins []window) []window {
	var all []window
	for _, w := range wins {
		if !w.traced {
			all = append(all, w)
		}
	}
	slices.SortStableFunc(all, func(a, b window) int { return cmp.Compare(b.cpuShare(), a.cpuShare()) })
	return all[:max(1, len(all)/4)]
}

// endToEnd reports what a user of the system sees, from the steady
// windows: the throughput sustained in 9 windows out of 10, and the median
// latency met in 9 windows out of 10. Even while it leaves the VM its CPU,
// the host switches between a fast and a slow state every few seconds, so
// a median over windows jumps between the two from run to run; the slow
// state's figures, which these quantiles report, hold still.
func endToEnd(wins []window, setupS []float64, heap uint64) map[string]metric {
	var thr, p50 []float64
	for _, w := range wins {
		thr = append(thr, w.throughput())
		p50 = append(p50, w.p50)
	}
	return map[string]metric{
		"throughput_ops_s": {quantile(thr, 0.1), "1/s"},
		"latency_p50_us":   {quantile(p50, 0.9), "us"},
		"setup_s":          {median(setupS), "s"},
		"mem_mb":           {float64(heap) / 1e6, "MB"},
	}
}

// perLayer reports counter differences per request from the untraced
// windows, span times from the traced windows, and the ratio between the
// two kinds of window.
func perLayer(wins []window, tr *tracer, attempted, failed int) map[string]metric {
	var u counters
	var uOps, tOps int
	var uNs int64
	var transitions uint64
	var uThr, tThr, uP50, tP50, uP99 []float64
	for i := range wins {
		win := &wins[i]
		transitions += win.delta[cTransitions]
		if win.traced {
			tOps += win.ops
			tThr = append(tThr, win.throughput())
			tP50 = append(tP50, win.p50)
			continue
		}
		uOps += win.ops
		uNs += win.ns
		u.addDiff(counters{}, win.delta)
		uThr = append(uThr, win.throughput())
		uP50 = append(uP50, win.p50)
		uP99 = append(uP99, win.p99)
	}
	m := make(map[string]metric)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perOp := func(c counter) float64 { return ratio(float64(u[c]), float64(uOps)) }
	lookups := func(name string, hits, misses counter) {
		set(name+".hit_ratio", "ratio", ratio(float64(u[hits]), float64(u[hits]+u[misses])))
		set(name+".lookups_per_op", "1/op", perOp(hits)+perOp(misses))
	}

	set("go.alloc_bytes_per_op", "B/op", perOp(cAllocBytes))
	set("go.allocs_per_op", "1/op", perOp(cMallocs))
	set("go.gc_per_kop", "1/kop", 1000*perOp(cGCs))

	set("rt.regions_per_op", "1/op", perOp(cRegions))
	set("rt.barriers_per_op", "1/op", perOp(cBarriers))
	set("rt.region_time_share", "ratio", ratio(float64(u[cRegionNanos]), float64(uNs)))

	lookups("difc.flowcache", cFlowHits, cFlowMisses)
	set("difc.flowcache.evictions_per_kop", "1/kop", 1000*perOp(cFlowEvictions))
	lookups("difc.intern", cInternHits, cInternMisses)
	lookups("difc.verdictcache", cVerdictHits, cVerdictMisses)

	reqNs := float64(tr.ns[spRequest])
	var kernelNs int64
	for _, k := range kernelCalls {
		set(spanNames[k]+".calls_per_op", "1/op", ratio(float64(tr.n[k]), float64(tOps)))
		set(spanNames[k]+".p50_us", "us", median64(tr.durs[k])/1e3)
		kernelNs += tr.ns[k]
	}
	set("kernel.busy_share", "ratio", ratio(float64(kernelNs), reqNs))
	set("lsm.hooks_per_op", "1/op", perOp(cHooks))
	set("budget.units_per_op", "1/op", perOp(cBudgetUnits))

	for _, k := range []spanKind{spTickSrc, spTickRelay, spTickDst} {
		set(spanNames[k]+".busy_share", "ratio", ratio(float64(tr.ns[k]), reqNs))
	}
	set("cluster.ticks_per_op", "1/op", perOp(cTicks))
	set("cluster.tick.idle_ratio", "ratio", ratio(float64(tr.idleTicks), float64(tr.ticks)))
	set("cluster.detector_transitions", "count", float64(transitions))
	set("net.wait_share", "ratio", ratio(float64(tr.waitNs), reqNs))

	self := tr.selfTimes()
	for _, l := range layers {
		set("self."+l+"_us_per_op", "us", ratio(float64(self[l]), float64(tr.n[spRequest]))/1e3)
	}
	set("residual_share", "ratio", ratio(float64(self["residual"]), reqNs))
	set("trace_overhead", "ratio", ratio(median(tThr), median(uThr)))
	set("untraced.throughput_ops_s", "1/s", median(uThr))
	set("traced.throughput_ops_s", "1/s", median(tThr))
	set("untraced.latency_p50_us", "us", median(uP50))
	set("traced.latency_p50_us", "us", median(tP50))
	set("untraced.latency_p99_us", "us", median(uP99))
	set("fail_ratio", "ratio", ratio(float64(failed), float64(attempted)))
	set("latency_samples", "count", float64(attempted))
	return m
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs linearly between ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := q * float64(len(s)-1)
	i := int(r)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (s[i+1]-s[i])*(r-float64(i))
}

func median64(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

// percentile returns the nearest-rank q-quantile of xs, sorting xs.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// digest is an FNV-1a running hash of the requests a workload issues:
// two runs with one seed end with equal digests.
type digest uint64

func (d *digest) add(vs ...uint64) {
	if *d == 0 {
		*d = 14695981039346656037
	}
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			*d ^= digest(v >> i & 0xff)
			*d *= 1099511628211
		}
	}
}
