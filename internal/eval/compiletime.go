package eval

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/dacapo"
	"laminar/internal/jvm"
)

// CompileRow is one configuration's compilation cost over the whole
// workload suite.
type CompileRow struct {
	Config   string
	Time     time.Duration
	Ratio    float64 // vs the barrier-free baseline compiler
	Instrs   int
	Barriers int
	Elided   int
}

// CompileTimeReport reproduces the §6.1 compilation-time result: static
// barriers roughly double compile time, dynamic barriers roughly triple
// it (barrier sequences are inlined aggressively, bloating the code the
// downstream passes must process).
type CompileTimeReport struct {
	Rows []CompileRow
}

// compileConfig is one compiler configuration of the experiment.
type compileConfig struct {
	name string
	opts jvm.CompileOptions
}

func (c compileConfig) String() string { return c.name }

// CompileTime measures eager compilation of every dacapo workload under
// each configuration, best of trials. Each trial times every
// configuration once, in rotated order, so host drift spreads over all
// configurations instead of landing between them.
func CompileTime(trials int) (*CompileTimeReport, error) {
	configs := []compileConfig{
		{"none", jvm.CompileOptions{Mode: jvm.BarrierNone}},
		{"static", jvm.CompileOptions{Mode: jvm.BarrierStatic}},
		{"static+opt", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}},
		{"dynamic", jvm.CompileOptions{Mode: jvm.BarrierDynamic}},
		{"dynamic+opt", jvm.CompileOptions{Mode: jvm.BarrierDynamic, Optimize: true}},
		{"static+opt+inline", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true, Inline: true}},
	}
	// Pre-build source programs once; compilation is what's timed.
	progs := make([]*jvm.Program, len(dacapo.Workloads))
	for i, m := range dacapo.Workloads {
		p, err := dacapo.Build(m)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	rpts := make(map[compileConfig]jvm.CompileReport, len(configs))
	const reps = 8 // compile the suite several times per timing sample
	best, err := minTimeModes(trials, reps, configs, func(cfg compileConfig, n int) (time.Duration, error) {
		var rpt jvm.CompileReport
		start := time.Now()
		for rep := 0; rep < n; rep++ {
			for _, p := range progs {
				p.ResetCompilation()
				r, err := p.CompileAll(cfg.opts)
				if err != nil {
					return 0, err
				}
				if rep > 0 {
					continue
				}
				rpt.InstrsOut += r.InstrsOut
				rpt.BarriersEmitted += r.BarriersEmitted
				rpt.BarriersElided += r.BarriersElided
			}
		}
		d := time.Since(start)
		rpts[cfg] = rpt // the counts are deterministic; any run's will do
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &CompileTimeReport{}
	for _, cfg := range configs {
		rpt := rpts[cfg]
		rep.Rows = append(rep.Rows, CompileRow{
			Config: cfg.name, Time: best[cfg], Ratio: float64(best[cfg]) / float64(best[configs[0]]),
			Instrs: rpt.InstrsOut, Barriers: rpt.BarriersEmitted, Elided: rpt.BarriersElided,
		})
	}
	return rep, nil
}

// Format renders the result.
func (r *CompileTimeReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Compilation time by barrier configuration (§6.1)"))
	w := len("config")
	for _, row := range r.Rows {
		w = max(w, len(row.Config))
	}
	fmt.Fprintf(&b, "%-*s %12s %8s %10s %10s %8s\n", w, "config", "time", "ratio", "instrs", "barriers", "elided")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s %12s %7.2fx %10d %10d %8d\n",
			w, row.Config, fmtDur(row.Time), row.Ratio, row.Instrs, row.Barriers, row.Elided)
	}
	fmt.Fprintf(&b, "\npaper: static barriers ≈ 2× compile time, dynamic ≈ 3×.\n")
	return b.String()
}
