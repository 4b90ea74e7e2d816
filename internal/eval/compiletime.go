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

// CompileTime measures eager compilation of every dacapo workload under
// each configuration, best of trials.
func CompileTime(trials int) (*CompileTimeReport, error) {
	configs := []struct {
		name string
		opts jvm.CompileOptions
	}{
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
	rep := &CompileTimeReport{}
	var baseline time.Duration
	for _, cfg := range configs {
		var rpt jvm.CompileReport
		const reps = 8 // compile the suite several times per timing sample
		d, err := minTime(trials, func() (time.Duration, error) {
			rpt = jvm.CompileReport{}
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				for _, p := range progs {
					p.ResetCompilation()
					r, err := p.CompileAll(cfg.opts)
					if err != nil {
						return 0, err
					}
					if rep > 0 {
						continue
					}
					rpt.Methods += r.Methods
					rpt.InstrsOut += r.InstrsOut
					rpt.BarriersEmitted += r.BarriersEmitted
					rpt.BarriersElided += r.BarriersElided
				}
			}
			return time.Since(start), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		row := CompileRow{
			Config: cfg.name, Time: d,
			Instrs: rpt.InstrsOut, Barriers: rpt.BarriersEmitted, Elided: rpt.BarriersElided,
		}
		if cfg.name == "none" {
			baseline = d
			row.Ratio = 1
		} else if baseline > 0 {
			row.Ratio = float64(d) / float64(baseline)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Format renders the result.
func (r *CompileTimeReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Compilation time by barrier configuration (§6.1)"))
	fmt.Fprintf(&b, "%-12s %12s %8s %10s %10s %8s\n", "config", "time", "ratio", "instrs", "barriers", "elided")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12s %7.2fx %10d %10d %8d\n",
			row.Config, fmtDur(row.Time), row.Ratio, row.Instrs, row.Barriers, row.Elided)
	}
	fmt.Fprintf(&b, "\npaper: static barriers ≈ 2× compile time, dynamic ≈ 3×.\n")
	return b.String()
}
