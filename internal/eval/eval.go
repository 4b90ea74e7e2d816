// Package eval is the evaluation harness: one entry point per table and
// figure of the Laminar paper (§6–§7), each returning structured results
// plus a paper-style text rendering. cmd/laminar-bench prints them and
// writes the machine-readable ones as BENCH_*.json; the package's tests
// run each at a tiny scale and pin the BENCH schemas; EXPERIMENTS.md
// records full-scale runs.
//
// Absolute numbers come from a simulated kernel and an interpreted
// MiniJVM, so they are not comparable to the paper's wall-clock values;
// the reproduced quantity is the *shape*: which configuration wins, by
// roughly what factor, and where the costs sit.
package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// timeIt runs f once and returns its duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// median of several trials of f.
func medianTime(trials int, f func()) time.Duration {
	ds := make([]time.Duration, trials)
	for i := range ds {
		ds[i] = timeIt(f)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[trials/2]
}

// median returns the middle value of xs (the upper one of an even
// count), leaving xs unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// errNoTrials: a best-of over no runs has no value, and reporting one
// would put +Inf rates, and gate verdicts computed from them, in a report.
var errNoTrials = errors.New("best of zero trials: trials must be at least 1")

// minTime takes the fastest of trials runs of f — lmbench's strategy, and
// the right estimator when the quantity of interest is the code's cost
// floor rather than system noise. f times itself, so per-run setup can
// stay outside its clock.
func minTime(trials int, f func() (time.Duration, error)) (time.Duration, error) {
	if trials < 1 {
		return 0, errNoTrials
	}
	var best time.Duration
	for i := 0; i < trials; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// minTimeModes is minTime for modes compared against each other: one
// untimed warm-up run of size msgs/4+1 under modes[0], then trials rounds
// that run size msgs under every mode, rotated so no mode always runs
// first in a round. Best-of per mode then samples comparable machine
// states instead of charging warm-up (frequency ramp, page cache) to
// whichever mode happens to run first. Every experiment that compares
// configurations by wall time takes its figures from here.
func minTimeModes[M comparable](trials, msgs int, modes []M, run func(mode M, msgs int) (time.Duration, error)) (map[M]time.Duration, error) {
	if trials < 1 {
		return nil, errNoTrials
	}
	if _, err := run(modes[0], msgs/4+1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	best := make(map[M]time.Duration, len(modes))
	for tr := 0; tr < trials; tr++ {
		for i := range modes {
			mode := modes[(i+tr)%len(modes)]
			wall, err := run(mode, msgs)
			if err != nil {
				return nil, fmt.Errorf("mode %v: %w", mode, err)
			}
			if prev, ok := best[mode]; !ok || wall < prev {
				best[mode] = wall
			}
		}
	}
	return best, nil
}

// pct returns (a-b)/b in percent.
func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a) - float64(b)) / float64(b) * 100
}

// header renders a table title with a rule.
func header(title string) string {
	return title + "\n" + strings.Repeat("-", len(title)) + "\n"
}

// fmtDur renders a duration in milliseconds.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%8.2fms", float64(d.Microseconds())/1000)
}
