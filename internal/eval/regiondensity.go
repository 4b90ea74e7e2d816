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
	Name      string
	PctInside int
	Base      time.Duration // BarrierNone
	Secured   time.Duration // BarrierStatic
	Overhead  float64
}

// RegionDensityReport measures how the cost of DIFC enforcement scales
// with the fraction of work executed inside security regions — the §4.3
// claim that regions keep overhead proportional to the security-relevant
// share of the program.
type RegionDensityReport struct {
	Rows []RegionDensityRow
}

// RegionDensity runs the sweep, best of trials runs per configuration
// (minTimeModes).
func RegionDensity(iters, trials int) (*RegionDensityReport, error) {
	rep := &RegionDensityReport{}
	cfgs := []jvm.CompileOptions{{Mode: jvm.BarrierNone}, {Mode: jvm.BarrierStatic}}
	for _, pt := range dacapo.RegionSweep() {
		run, err := jvmRunner(cfgs, func() (*jvm.Program, error) { return dacapo.BuildRegionSweep(pt) })
		if err != nil {
			return nil, err
		}
		best, err := minTimeModes(trials, iters, cfgs, run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.Name, err)
		}
		base, secured := best[cfgs[0]], best[cfgs[1]]
		rep.Rows = append(rep.Rows, RegionDensityRow{
			Name:      pt.Name,
			PctInside: pt.PctInside,
			Base:      base,
			Secured:   secured,
			Overhead:  pct(secured, base),
		})
	}
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
	b.WriteString("\noverhead should grow with the in-region share: DIFC enforcement\n" +
		"costs are confined to the code that touches labeled data.\n")
	return b.String()
}
