package corpus_test

// The differential soundness oracle for barrier optimization: every
// program in the corpus — plus a large set of randomized structured
// programs — must behave identically under every compiler configuration.
// "Identically" means: same return value, same error, same final statics,
// same security trace (region entries/exits, denials, catch transfers in
// order), same violation and region counts. Barrier-check counts are the
// one thing allowed to differ, and only monotonically: optimized runs
// check at most as often as unoptimized ones, and interprocedural
// optimization must beat intraprocedural on the call-heavy corpus.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
	"laminar/internal/jvm/corpus"
)

// config is one compiler configuration under test.
type config struct {
	name string
	opts jvm.CompileOptions
}

func configs() []config {
	return []config{
		{"static", jvm.CompileOptions{Mode: jvm.BarrierStatic}},
		{"static-opt", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}},
		{"static-opt-inline", jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true, Inline: true}},
		{"static-interproc", jvm.CompileOptions{Mode: jvm.BarrierStatic, Interproc: true}},
		{"static-interproc-inline", jvm.CompileOptions{Mode: jvm.BarrierStatic, Interproc: true, Inline: true}},
		{"static-tiered", jvm.CompileOptions{Mode: jvm.BarrierStatic, HotThreshold: 2}},
		{"dynamic", jvm.CompileOptions{Mode: jvm.BarrierDynamic}},
		{"dynamic-opt", jvm.CompileOptions{Mode: jvm.BarrierDynamic, Optimize: true}},
		{"dynamic-interproc", jvm.CompileOptions{Mode: jvm.BarrierDynamic, Interproc: true}},
	}
}

// outcome is everything a run may not change across configurations.
type outcome struct {
	verifyErr  string
	callErr    string
	ret        string
	statics    string
	trace      string
	violations uint64
	regions    uint64
	checks     uint64 // barrier checks; compared only for monotonicity
}

func renderValue(v jvm.Value) string {
	if !v.IsRef() {
		return fmt.Sprintf("i%d", v.Int())
	}
	o := v.Ref()
	return fmt.Sprintf("ref(labeled=%v,labels=%v,len=%d)", o.IsLabeled(), o.Labels(), o.Len())
}

// run executes src's main under one configuration and captures the
// observable outcome.
func run(t *testing.T, src string, cfg config) outcome {
	t.Helper()
	p, err := jvm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.opts.Interproc {
		if _, err := analysis.Attach(p); err != nil {
			return outcome{verifyErr: err.Error()}
		}
	}
	mc, err := jvm.NewMachine(p, cfg.opts)
	if err != nil {
		return outcome{verifyErr: err.Error()}
	}
	mc.Trace = &jvm.TraceLog{}
	v, callErr := mc.Call(mc.NewThread(), "main")
	var statics []string
	for i := 0; i < p.NStatics; i++ {
		statics = append(statics, renderValue(mc.Static(i)))
	}
	out := outcome{
		ret:        renderValue(v),
		statics:    strings.Join(statics, ";"),
		trace:      strings.Join(mc.Trace.Events, "\n"),
		violations: mc.Stats().Violations,
		regions:    mc.Stats().RegionsEntered,
		checks:     mc.Stats().BarrierChecks,
	}
	if callErr != nil {
		out.callErr = callErr.Error()
	}
	return out
}

// hasMain reports whether the program defines main (lint-only corpus
// entries do not).
func hasMain(src string) bool { return strings.Contains(src, "method main ") }

// checkProgram runs one source under every configuration and compares
// outcomes against the first (unoptimized static) run.
func checkProgram(t *testing.T, name, src string) (base, intra, inter outcome) {
	t.Helper()
	cfgs := configs()
	outs := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		outs[i] = run(t, src, cfg)
	}
	for i, cfg := range cfgs[1:] {
		got, want := outs[i+1], outs[0]
		// Verify errors carry no barrier state; they must agree exactly.
		if (got.verifyErr == "") != (want.verifyErr == "") {
			t.Errorf("%s/%s: verify divergence: %q vs %q", name, cfg.name, got.verifyErr, want.verifyErr)
			continue
		}
		if got.verifyErr != "" {
			continue
		}
		if got.callErr != want.callErr {
			t.Errorf("%s/%s: error divergence:\n got %q\nwant %q", name, cfg.name, got.callErr, want.callErr)
		}
		if got.ret != want.ret {
			t.Errorf("%s/%s: return divergence: %s vs %s", name, cfg.name, got.ret, want.ret)
		}
		if got.statics != want.statics {
			t.Errorf("%s/%s: statics divergence:\n got %s\nwant %s", name, cfg.name, got.statics, want.statics)
		}
		if got.trace != want.trace {
			t.Errorf("%s/%s: trace divergence:\n got:\n%s\nwant:\n%s", name, cfg.name, got.trace, want.trace)
		}
		if got.violations != want.violations || got.regions != want.regions {
			t.Errorf("%s/%s: security counters diverge: violations %d/%d regions %d/%d",
				name, cfg.name, got.violations, want.violations, got.regions, want.regions)
		}
	}
	// Monotonicity within the static family.
	if outs[0].verifyErr == "" {
		if outs[1].checks > outs[0].checks {
			t.Errorf("%s: static-opt checks more than unopt: %d > %d", name, outs[1].checks, outs[0].checks)
		}
		if outs[3].checks > outs[1].checks {
			t.Errorf("%s: static-interproc checks more than static-opt: %d > %d", name, outs[3].checks, outs[1].checks)
		}
		if outs[7].checks > outs[6].checks {
			t.Errorf("%s: dynamic-opt checks more than dynamic: %d > %d", name, outs[7].checks, outs[6].checks)
		}
		if outs[8].checks > outs[7].checks {
			t.Errorf("%s: dynamic-interproc checks more than dynamic-opt: %d > %d", name, outs[8].checks, outs[7].checks)
		}
	}
	return outs[0], outs[1], outs[3]
}

func TestOracleCorpus(t *testing.T) {
	var intraTotal, interTotal uint64
	all := corpus.Programs()
	for _, name := range corpus.Names(all) {
		src := all[name]
		if !hasMain(src) {
			t.Errorf("positive corpus program %s has no main", name)
			continue
		}
		_, intra, inter := checkProgram(t, name, src)
		intraTotal += intra.checks
		interTotal += inter.checks
	}
	// The acceptance bar: summed over the call-heavy corpus,
	// interprocedural elimination removes strictly more dynamic checks
	// than the intraprocedural pass.
	if interTotal >= intraTotal {
		t.Errorf("interproc did not beat intraproc over the corpus: %d >= %d", interTotal, intraTotal)
	}
}

func TestOracleNegativeCorpus(t *testing.T) {
	all := corpus.Negative()
	for _, name := range corpus.Names(all) {
		src := all[name]
		if !hasMain(src) {
			continue // lint-only entry
		}
		checkProgram(t, name, src)
	}
}

// TestOracleRandomized differentially tests generated structured
// programs: straight-line bodies with forward branches, helper call
// chains, factories, and optional security regions whose bodies may
// include guaranteed denials (absorbed by their catch blocks).
func TestOracleRandomized(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		src := genProgram(rand.New(rand.NewSource(int64(i))))
		name := fmt.Sprintf("rand-%04d", i)
		base, _, _ := checkProgram(t, name, src)
		if base.verifyErr != "" {
			t.Errorf("%s: generated program must verify: %v\n%s", name, base.verifyErr, src)
		}
		if t.Failed() {
			t.Logf("failing source for %s:\n%s", name, src)
			return
		}
	}
}

// genProgram emits one random structured program. Generated code is
// verifiable by construction: stack effects balance, branches only jump
// forward to emitted labels, and region bodies respect the §5.1
// parameter rules (parameters are only dereferenced).
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("statics 2\n\n")

	nHelpers := 1 + r.Intn(3)
	returns := make([]bool, nHelpers)
	helperOp := func(i int) string {
		choices := 5
		if i > 0 {
			choices = 6
		}
		switch r.Intn(choices) {
		case 0:
			return "    load 0\n    getfield 0\n    pop\n"
		case 1:
			return fmt.Sprintf("    load 0\n    const %d\n    putfield 0\n", r.Intn(100))
		case 2:
			return "    new 1\n    store 1\n    load 1\n    const 7\n    putfield 0\n"
		case 3:
			return fmt.Sprintf("    getstatic %d\n    pop\n", r.Intn(2))
		case 4:
			return fmt.Sprintf("    const %d\n    putstatic %d\n", r.Intn(50), r.Intn(2))
		default:
			callee := r.Intn(i)
			s := fmt.Sprintf("    load 0\n    invoke h%d\n", callee)
			if returns[callee] {
				s += "    pop\n"
			}
			return s
		}
	}
	for i := 0; i < nHelpers; i++ {
		returns[i] = r.Intn(2) == 0
		fmt.Fprintf(&b, "method h%d args=1 locals=2\n", i)
		for j := 1 + r.Intn(4); j > 0; j-- {
			b.WriteString(helperOp(i))
		}
		if returns[i] {
			switch r.Intn(3) {
			case 0:
				b.WriteString("    load 0\n    getfield 0\n    returnval\n")
			case 1:
				fmt.Fprintf(&b, "    const %d\n    returnval\n", r.Intn(9))
			default:
				b.WriteString("    new 1\n    returnval\n")
			}
		} else {
			b.WriteString("    return\n")
		}
		b.WriteString("end\n\n")
	}

	// Optional security region; its body may contain guaranteed denials,
	// which its catch absorbs — the oracle then checks the denial fires
	// identically under every configuration.
	kind := r.Intn(3) // 0 none, 1 secrecy, 2 integrity
	if kind > 0 {
		attr := "secrecy=1"
		if kind == 2 {
			attr = "integrity=2"
		}
		fmt.Fprintf(&b, "secure method region args=1 locals=2 %s\n", attr)
		for j := 1 + r.Intn(3); j > 0; j-- {
			switch r.Intn(6) {
			case 0:
				b.WriteString("    load 0\n    getfield 0\n    pop\n") // denied in integrity regions
			case 1:
				b.WriteString("    load 0\n    const 5\n    putfield 0\n") // denied in secrecy regions
			case 2:
				b.WriteString("    new 1\n    store 1\n    load 1\n    getfield 0\n    pop\n")
			case 3:
				b.WriteString("    getstatic 0\n    pop\n") // denied in integrity regions
			case 4:
				b.WriteString("    const 3\n    putstatic 1\n") // denied in secrecy regions
			default:
				callee := r.Intn(nHelpers)
				b.WriteString(fmt.Sprintf("    load 0\n    invoke h%d\n", callee))
				if returns[callee] {
					b.WriteString("    pop\n")
				}
			}
		}
		b.WriteString("    return\ncatch:\n    return\nend\n\n")
	}

	b.WriteString("method main args=0 locals=2\n")
	b.WriteString("    new 1\n    store 0\n")
	fmt.Fprintf(&b, "    load 0\n    const %d\n    putfield 0\n", r.Intn(100))
	if r.Intn(2) == 0 {
		// A diamond join over a static-controlled branch.
		b.WriteString("    getstatic 0\n    jmpif dyes\n")
		b.WriteString("    load 0\n    const 1\n    putfield 0\n    jmp djoin\n")
		b.WriteString("dyes:\n    load 0\n    const 2\n    putfield 0\n")
		b.WriteString("djoin:\n")
	}
	for j := 1 + r.Intn(3); j > 0; j-- {
		callee := r.Intn(nHelpers)
		fmt.Fprintf(&b, "    load 0\n    invoke h%d\n", callee)
		if returns[callee] {
			b.WriteString("    pop\n")
		}
	}
	if kind > 0 {
		b.WriteString("    load 0\n    invoke region\n")
	}
	b.WriteString("    load 0\n    getfield 0\n    returnval\nend\n")
	return b.String()
}

// TestLintFlagsEveryRuntimeDenial is the no-false-negative check: every
// negative-corpus program whose execution the runtime denies must carry
// at least one non-advisory lint finding, and the finding's rule must
// match the denial the program was built to exhibit.
func TestLintFlagsEveryRuntimeDenial(t *testing.T) {
	wantRule := map[string]string{
		"static_write_secrecy.mjvm":  "region-static-write-secrecy",
		"static_read_integrity.mjvm": "region-static-read-integrity",
		"outer_write.mjvm":           "region-outer-write",
		"outer_read.mjvm":            "region-outer-read",
		"ref_escape.mjvm":            "region-ref-escape",
		"param_write.mjvm":           "region-param-write",
		"no_exit.mjvm":               "region-no-exit",
	}
	all := corpus.Negative()
	if len(all) != len(wantRule) {
		t.Errorf("negative corpus has %d entries, rule table has %d", len(all), len(wantRule))
	}
	for _, name := range corpus.Names(all) {
		src := all[name]
		p, err := jvm.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		findings := analysis.Lint(p)
		rules := map[string]bool{}
		hard := 0
		for _, f := range findings {
			rules[f.Rule] = true
			if !f.Advisory {
				hard++
			}
		}
		if hard == 0 {
			t.Errorf("%s: no non-advisory lint finding (false negative)", name)
		}
		if want := wantRule[name]; want != "" && !rules[want] {
			t.Errorf("%s: missing expected rule %s; got %v", name, want, findings)
		}
		// Tie the static verdict to dynamic behavior: runnable entries
		// must actually be denied at runtime.
		if hasMain(src) {
			out := run(t, src, config{"dynamic", jvm.CompileOptions{Mode: jvm.BarrierDynamic}})
			denied := out.violations > 0 || out.callErr != "" || out.verifyErr != ""
			if !denied {
				t.Errorf("%s: ran clean under dynamic barriers; negative corpus entry proves nothing", name)
			}
		}
	}
}

// TestPositiveCorpusLintClean pins the positive corpus (and the example
// programs the CI vet gate covers) to zero lint findings.
func TestPositiveCorpusLintClean(t *testing.T) {
	all := corpus.Programs()
	for _, name := range corpus.Names(all) {
		p, err := jvm.Parse(all[name])
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := p.Verify(); err != nil {
			t.Errorf("%s: verify: %v", name, err)
		}
		if findings := analysis.Lint(p); len(findings) != 0 {
			t.Errorf("%s: unexpected findings: %v", name, findings)
		}
	}
}
