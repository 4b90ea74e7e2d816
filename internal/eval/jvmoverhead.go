package eval

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/dacapo"
	"laminar/internal/jvm"
	"laminar/internal/rt"
)

// JVMRow is one benchmark's result in the JVM-overhead experiment (§6.1's
// figure: DaCapo + pseudojbb under no/static/dynamic barriers).
type JVMRow struct {
	Name       string
	Base       time.Duration
	Static     time.Duration
	Dynamic    time.Duration
	StaticPct  float64
	DynamicPct float64
}

// JVMOverheadReport reproduces the §6.1 barrier-overhead figure.
type JVMOverheadReport struct {
	Rows       []JVMRow
	GeoStatic  float64 // average static overhead (%)
	GeoDynamic float64 // average dynamic overhead (%)
	Optimized  bool
}

// JVMOverhead measures every workload for iters loop iterations, best of
// trials runs per configuration (minTimeModes). Compilation is excluded,
// as in the paper's methodology (second iteration): jvmRunner warms each
// machine up with one call before timing.
func JVMOverhead(iters, trials int, optimize bool) (*JVMOverheadReport, error) {
	rep := &JVMOverheadReport{Optimized: optimize}
	var cfgs []jvm.CompileOptions
	for _, mode := range []jvm.BarrierMode{jvm.BarrierNone, jvm.BarrierStatic, jvm.BarrierDynamic} {
		cfgs = append(cfgs, jvm.CompileOptions{Mode: mode, Optimize: optimize})
	}
	sumS, sumD := 0.0, 0.0
	for _, m := range dacapo.Workloads {
		run, err := jvmRunner(cfgs, func() (*jvm.Program, error) { return dacapo.Build(m) })
		if err != nil {
			return nil, err
		}
		best, err := minTimeModes(trials, iters, cfgs, run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		base, static, dynamic := best[cfgs[0]], best[cfgs[1]], best[cfgs[2]]
		row := JVMRow{
			Name: m.Name, Base: base, Static: static, Dynamic: dynamic,
			StaticPct:  pct(static, base),
			DynamicPct: pct(dynamic, base),
		}
		sumS += row.StaticPct
		sumD += row.DynamicPct
		rep.Rows = append(rep.Rows, row)
	}
	rep.GeoStatic = sumS / float64(len(rep.Rows))
	rep.GeoDynamic = sumD / float64(len(rep.Rows))
	return rep, nil
}

// jvmRunner prepares, for each compiler configuration, one machine per
// program that build returns (a fresh build per configuration: compiled
// variants are cached on the program's methods), each on a host thread
// holding its program's credentials and warmed up by one call of "run",
// which compiles it. The returned function times one call of "run" with
// n iterations on every machine of a configuration, for minTimeModes.
func jvmRunner(cfgs []jvm.CompileOptions, build ...func() (*jvm.Program, error)) (func(jvm.CompileOptions, int) (time.Duration, error), error) {
	type machine struct {
		mc *jvm.Machine
		th *rt.Thread
	}
	machines := make(map[jvm.CompileOptions][]machine, len(cfgs))
	for _, cfg := range cfgs {
		for _, b := range build {
			prog, err := b()
			if err != nil {
				return nil, err
			}
			mc, err := jvm.NewMachine(prog, cfg)
			if err != nil {
				return nil, err
			}
			th, err := jvm.HostThread(prog)
			if err != nil {
				return nil, err
			}
			if _, err := mc.Call(th, "run", jvm.IntV(4)); err != nil {
				return nil, err
			}
			machines[cfg] = append(machines[cfg], machine{mc, th})
		}
	}
	return func(cfg jvm.CompileOptions, n int) (time.Duration, error) {
		start := time.Now()
		for _, m := range machines[cfg] {
			if _, err := m.mc.Call(m.th, "run", jvm.IntV(int64(n))); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}, nil
}

// Format renders the figure as text.
func (r *JVMOverheadReport) Format() string {
	var b strings.Builder
	title := "JVM overhead on programs without security regions (§6.1 figure)"
	if r.Optimized {
		title += " [redundant-barrier elimination ON]"
	}
	b.WriteString(header(title))
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %9s %9s\n",
		"benchmark", "base", "static", "dynamic", "static%", "dynamic%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12s %12s %12s %8.1f%% %8.1f%%\n",
			row.Name, fmtDur(row.Base), fmtDur(row.Static), fmtDur(row.Dynamic),
			row.StaticPct, row.DynamicPct)
	}
	fmt.Fprintf(&b, "%-12s %38s %8.1f%% %8.1f%%\n", "average", "", r.GeoStatic, r.GeoDynamic)
	fmt.Fprintf(&b, "\npaper: static ≈ 6%% avg, dynamic ≈ 17%% avg — dynamic ≈ 3× static.\n")
	return b.String()
}
