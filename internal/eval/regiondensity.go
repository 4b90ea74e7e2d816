package eval

import (
	"fmt"
	"strings"
	"time"

	"laminar/internal/dacapo"
	"laminar/internal/jvm"
)

// RegionDensityRow is one point of the overhead-vs-density curve.
type RegionDensityRow struct {
	Name     string
	Base     time.Duration // BarrierNone
	Secured  time.Duration // BarrierStatic
	Overhead float64
}

// RegionDensityReport measures how the cost of DIFC enforcement scales
// with the fraction of work executed inside security regions — the §4.3
// claim that regions keep overhead proportional to the security-relevant
// share of the program.
type RegionDensityReport struct {
	Rows []RegionDensityRow
	// Gap is the all-inside point's overhead minus the all-outside
	// point's, in percentage points: the median over rounds of the
	// difference measured within one round.
	Gap float64
}

// RegionDensity runs the sweep in trials alternating rounds. Each round
// times every point in both configurations, alternating which goes
// first, so the points of one round share the host's state of the
// moment. A row keeps each configuration's fastest run; Gap compares
// the sweep's ends round by round, so drift between rounds cancels
// instead of deciding the comparison.
func RegionDensity(iters, trials int) (*RegionDensityReport, error) {
	if trials < 1 {
		return nil, errNoTrials
	}
	cfgs := []jvm.CompileOptions{{Mode: jvm.BarrierNone}, {Mode: jvm.BarrierStatic}}
	sweep := dacapo.RegionSweep()
	runs := make([]func(jvm.CompileOptions, int) (time.Duration, error), len(sweep))
	rep := &RegionDensityReport{Rows: make([]RegionDensityRow, len(sweep))}
	for i, pt := range sweep {
		run, err := jvmRunner(cfgs, func() (*jvm.Program, error) { return dacapo.BuildRegionSweep(pt) })
		if err != nil {
			return nil, err
		}
		if _, err := run(cfgs[0], iters/4+1); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", pt.Name, err)
		}
		runs[i] = run
		rep.Rows[i] = RegionDensityRow{Name: pt.Name}
	}
	gaps := make([]float64, 0, trials)
	for tr := 0; tr < trials; tr++ {
		var first, last float64
		for i := range sweep {
			var wall [2]time.Duration
			for j := range cfgs {
				m := (j + tr) % len(cfgs)
				d, err := runs[i](cfgs[m], iters)
				if err != nil {
					return nil, fmt.Errorf("%s: mode %v: %w", sweep[i].Name, cfgs[m], err)
				}
				wall[m] = d
			}
			row := &rep.Rows[i]
			if tr == 0 || wall[0] < row.Base {
				row.Base = wall[0]
			}
			if tr == 0 || wall[1] < row.Secured {
				row.Secured = wall[1]
			}
			over := pct(wall[1], wall[0])
			if i == 0 {
				first = over
			}
			last = over
		}
		gaps = append(gaps, last-first)
	}
	for i := range rep.Rows {
		rep.Rows[i].Overhead = pct(rep.Rows[i].Secured, rep.Rows[i].Base)
	}
	rep.Gap = median(gaps)
	return rep, nil
}

// Format renders the curve.
func (r *RegionDensityReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Overhead vs fraction of work inside security regions (§4.3 claim)"))
	fmt.Fprintf(&b, "%-12s %12s %12s %10s\n", "density", "base", "secured", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12s %12s %9.1f%%\n",
			row.Name, fmtDur(row.Base), fmtDur(row.Secured), row.Overhead)
	}
	fmt.Fprintf(&b, "\nall-inside minus all-outside overhead: %+.1f points (median of paired rounds)\n", r.Gap)
	b.WriteString("overhead should grow with the in-region share: DIFC enforcement\n" +
		"costs are confined to the code that touches labeled data.\n")
	return b.String()
}
