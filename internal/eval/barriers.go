package eval

import (
	"fmt"
	"strings"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
	"laminar/internal/jvm/corpus"
)

// BarrierRow is one corpus program's barrier accounting under the three
// optimization tiers, in both static (compile-time barrier instructions
// emitted) and dynamic (runtime checks executed) terms.
type BarrierRow struct {
	Program      string `json:"program"`
	Sites        int    `json:"sites"`         // access+static barrier sites before elimination
	EmittedBase  int    `json:"emitted_base"`  // barriers emitted, no elimination
	EmittedIntra int    `json:"emitted_intra"` // after intraprocedural elimination (§5.1)
	EmittedInter int    `json:"emitted_inter"` // after interprocedural summary-based elimination
	ChecksBase   uint64 `json:"checks_base"`   // runtime checks, no elimination
	ChecksIntra  uint64 `json:"checks_intra"`  // runtime checks, intraprocedural
	ChecksInter  uint64 `json:"checks_inter"`  // runtime checks, interprocedural
	BarrierFree  int    `json:"barrier_free"`  // methods proven barrier-free
}

// BarrierReport is the barrier-reduction experiment: how much of the
// barrier-inserting JIT's work each elimination tier removes over the
// call-heavy corpus. The differential oracle (internal/jvm/corpus)
// guarantees all three tiers are observationally equivalent; this report
// quantifies what the equivalence buys.
type BarrierReport struct {
	Rows []BarrierRow `json:"rows"`
}

// barrierTier compiles and runs src's main under one tier and returns
// (barriers emitted over all compiled variants, runtime checks).
func barrierTier(src string, opts jvm.CompileOptions) (sites, emitted, free int, checks uint64, err error) {
	p, perr := jvm.Parse(src)
	if perr != nil {
		return 0, 0, 0, 0, perr
	}
	if opts.Interproc {
		if _, aerr := analysis.Attach(p); aerr != nil {
			return 0, 0, 0, 0, aerr
		}
	}
	mc, merr := jvm.NewMachine(p, opts)
	if merr != nil {
		return 0, 0, 0, 0, merr
	}
	if _, cerr := p.CompileAll(opts); cerr != nil {
		return 0, 0, 0, 0, cerr
	}
	th, herr := jvm.HostThread(p)
	if herr != nil {
		return 0, 0, 0, 0, herr
	}
	if _, rerr := mc.Call(th, "main"); rerr != nil {
		return 0, 0, 0, 0, fmt.Errorf("corpus program must run clean: %w", rerr)
	}
	seen := map[string]bool{}
	for _, st := range p.BarrierStats() {
		emitted += st.Emitted
		if !seen[st.Method] {
			seen[st.Method] = true
			sites += st.Sites
			if st.BarrierFree {
				free++
			}
		}
	}
	return sites, emitted, free, mc.Stats().BarrierChecks, nil
}

// Barriers measures the corpus under base / intraprocedural /
// interprocedural static-mode compilation.
func Barriers() (*BarrierReport, error) {
	rep := &BarrierReport{}
	all := corpus.Programs()
	for _, name := range corpus.Names(all) {
		src := all[name]
		row := BarrierRow{Program: strings.TrimSuffix(name, ".mjvm")}
		var err error
		if row.Sites, row.EmittedBase, _, row.ChecksBase, err = barrierTier(src, jvm.CompileOptions{Mode: jvm.BarrierStatic}); err != nil {
			return nil, fmt.Errorf("%s/base: %w", name, err)
		}
		if _, row.EmittedIntra, _, row.ChecksIntra, err = barrierTier(src, jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}); err != nil {
			return nil, fmt.Errorf("%s/intra: %w", name, err)
		}
		if _, row.EmittedInter, row.BarrierFree, row.ChecksInter, err = barrierTier(src, jvm.CompileOptions{Mode: jvm.BarrierStatic, Interproc: true}); err != nil {
			return nil, fmt.Errorf("%s/inter: %w", name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func cutPct(part, whole uint64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(whole-part)/float64(whole))
}

// Format renders the paper-style text table.
func (r *BarrierReport) Format() string {
	var b strings.Builder
	b.WriteString("Barrier reduction over the corpus (static mode; checks = runtime, emitted = compile-time)\n")
	fmt.Fprintf(&b, "%-16s %5s | %7s %7s %7s | %7s %7s %7s | %9s %9s\n",
		"program", "sites", "em.base", "em.intra", "em.inter",
		"ck.base", "ck.intra", "ck.inter", "intra-cut", "inter-cut")
	var tb, ti, tn uint64
	for _, row := range r.Rows {
		tb += row.ChecksBase
		ti += row.ChecksIntra
		tn += row.ChecksInter
		fmt.Fprintf(&b, "%-16s %5d | %7d %7s %7s | %7d %7d %7d | %9s %9s\n",
			row.Program, row.Sites,
			row.EmittedBase, fmt.Sprint(row.EmittedIntra), fmt.Sprint(row.EmittedInter),
			row.ChecksBase, row.ChecksIntra, row.ChecksInter,
			cutPct(row.ChecksIntra, row.ChecksBase), cutPct(row.ChecksInter, row.ChecksBase))
	}
	fmt.Fprintf(&b, "%-16s %5s | %7s %7s %7s | %7d %7d %7d | %9s %9s\n",
		"total", "", "", "", "", tb, ti, tn, cutPct(ti, tb), cutPct(tn, tb))
	return b.String()
}
