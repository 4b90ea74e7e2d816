package corpus_test

// The interpreter-backed leak oracle for the taint lint rules. The three
// rules claim one-sided soundness on this corpus' program shapes: if
// LintTaint reports nothing for a rule family, interpretation must not
// exhibit the corresponding leak. The oracle makes "leak" operational:
//
//   robust-declassification  vary the low-integrity host input (static
//                            slot 0) with the secret fixed; the declass
//                            stream (declassifier region events + every
//                            publication made inside a declassification
//                            context) must not change.
//   transparent-endorsement  vary the secret (main's argument) with the
//                            host input fixed; the endorse stream
//                            (endorser region events + publications made
//                            inside an endorsement context) must not
//                            change.
//   implicit-flow-fanout     vary the secret; the public stream (every
//                            publication made OUTSIDE declassification
//                            and endorsement contexts) must not change.
//
// Publications inside a declassification context are sanctioned secret
// releases and excluded from the public stream; publications inside an
// endorsement context are charged to the endorse stream, where the
// transparent-endorsement rule owns them. The oracle is one-sided by
// design: a finding without an observed leak may be lint imprecision OR
// a leak the three probe inputs cannot distinguish, so only the
// leak-without-finding direction is a hard failure.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
	"laminar/internal/jvm/corpus"
)

// taintRun captures one interpretation of a program under one (secret,
// low-input) assignment.
type taintRun struct {
	verifyErr string
	declass   []string
	endorse   []string
	public    []string
}

func (tr taintRun) key() [3]string {
	return [3]string{
		strings.Join(tr.declass, "\n"),
		strings.Join(tr.endorse, "\n"),
		strings.Join(tr.public, "\n"),
	}
}

// hostInput is the host's write of the low-integrity input into static
// slot 0, appended to each program with statics and called before main.
const hostInput = `
method host_input args=1 locals=1
    load 0
    putstatic 0
    return
end
`

// runTaintOracle interprets src under cfg with the given secret (passed
// to each of main's arguments) and low-integrity input (static slot 0),
// and splits the trace into the three streams.
func runTaintOracle(t *testing.T, src string, cfg config, secret, low int64) taintRun {
	t.Helper()
	p, err := jvm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	withInput := p.NStatics > 0
	if withInput {
		src += hostInput
		if p, err = jvm.Parse(src); err != nil {
			t.Fatalf("parse with host input: %v", err)
		}
	}
	if cfg.opts.Interproc {
		if _, err := analysis.Attach(p); err != nil {
			return taintRun{verifyErr: err.Error()}
		}
	}
	mc, err := jvm.NewMachine(p, cfg.opts)
	if err != nil {
		return taintRun{verifyErr: err.Error()}
	}
	th := hostThread(t, src, p)
	if withInput {
		if _, err := mc.Call(th, "host_input", jvm.IntV(low)); err != nil {
			t.Fatalf("host input: %v", err)
		}
	}
	mc.Trace = &jvm.TraceLog{}
	mc.TracePubs = true
	mc.MaxInstructions = 200000
	main, err := p.Lookup("main")
	if err != nil {
		t.Fatalf("lookup main: %v", err)
	}
	args := make([]jvm.Value, main.NArgs)
	for i := range args {
		args[i] = jvm.IntV(secret)
	}
	mc.Call(th, "main", args...) // errors are themselves part of the trace
	out := taintRun{}
	isD, isE := make(map[string]bool), make(map[string]bool)
	for _, m := range p.Methods {
		isD[m.Name] = analysis.IsDeclassifier(m)
		isE[m.Name] = analysis.IsEndorser(m)
	}
	depthD, depthE := 0, 0
	for _, ev := range mc.Trace.Events {
		f := strings.Fields(ev)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "enter", "deny-enter", "exit", "catch":
			if isD[f[1]] {
				out.declass = append(out.declass, ev)
				switch f[0] {
				case "enter":
					depthD++
				case "exit":
					depthD--
				}
			}
			if isE[f[1]] {
				out.endorse = append(out.endorse, ev)
				switch f[0] {
				case "enter":
					depthE++
				case "exit":
					depthE--
				}
			}
		case "pub":
			if depthD > 0 {
				out.declass = append(out.declass, ev)
			}
			if depthE > 0 {
				out.endorse = append(out.endorse, ev)
			}
			if depthD == 0 && depthE == 0 {
				out.public = append(out.public, ev)
			}
		}
	}
	return out
}

// leakReport is the oracle verdict for one program under one config.
type leakReport struct {
	rd, te, fan bool
}

// probeLeaks runs the program under the probe inputs and reports which
// streams the inputs can distinguish.
func probeLeaks(t *testing.T, src string, cfg config) (leakReport, bool) {
	t.Helper()
	r10 := runTaintOracle(t, src, cfg, 1, 0)
	r11 := runTaintOracle(t, src, cfg, 1, 1)
	r00 := runTaintOracle(t, src, cfg, 0, 0)
	r20 := runTaintOracle(t, src, cfg, 2, 0)
	if r10.verifyErr != "" || r11.verifyErr != "" || r00.verifyErr != "" || r20.verifyErr != "" {
		return leakReport{}, false
	}
	var rep leakReport
	rep.rd = strings.Join(r10.declass, "\n") != strings.Join(r11.declass, "\n")
	te0, te1, te2 := strings.Join(r00.endorse, "\n"), strings.Join(r10.endorse, "\n"), strings.Join(r20.endorse, "\n")
	rep.te = te0 != te1 || te1 != te2
	p0, p1, p2 := strings.Join(r00.public, "\n"), strings.Join(r10.public, "\n"), strings.Join(r20.public, "\n")
	rep.fan = p0 != p1 || p1 != p2
	return rep, true
}

func taintRules(src string, t *testing.T) map[string]bool {
	t.Helper()
	p, err := jvm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rules := make(map[string]bool)
	for _, f := range analysis.LintTaint(p) {
		rules[f.Rule] = true
	}
	return rules
}

// assertSound is the one-sided soundness check: an observed leak without
// the matching finding is a missed bug.
func assertSound(t *testing.T, name, src string, cfg config, rep leakReport, rules map[string]bool) {
	t.Helper()
	if rep.rd && !rules[analysis.RuleRobustDeclass] {
		t.Errorf("%s/%s: declass stream varies with low-integrity input but no %s finding\n%s",
			name, cfg.name, analysis.RuleRobustDeclass, src)
	}
	if rep.te && !rules[analysis.RuleTransparentEnd] {
		t.Errorf("%s/%s: endorse stream varies with the secret but no %s finding\n%s",
			name, cfg.name, analysis.RuleTransparentEnd, src)
	}
	if rep.fan && !rules[analysis.RuleImplicitFanout] {
		t.Errorf("%s/%s: public stream varies with the secret but no %s finding\n%s",
			name, cfg.name, analysis.RuleImplicitFanout, src)
	}
}

// TestTaintFixtures pins every taint-corpus fixture to its declared
// expectations: "; EXPECT <rule> <method>@<pc>" lines must match a
// finding exactly, "; EXPECT clean" pins zero findings; and each
// expectation family must correspond to an interpreter-visible leak (or
// its absence) so the fixtures stay true positives/negatives.
func TestTaintFixtures(t *testing.T) {
	all := corpus.Taint()
	if len(all) == 0 {
		t.Fatal("taint corpus is empty")
	}
	sawRule := map[string]bool{}
	for _, name := range corpus.Names(all) {
		src := all[name]
		p, err := jvm.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := p.Verify(); err != nil {
			t.Errorf("%s: verify: %v", name, err)
			continue
		}
		findings := analysis.LintTaint(p)
		got := map[string]bool{}
		for _, f := range findings {
			got[fmt.Sprintf("%s %s@%d", f.Rule, f.Method, f.PC)] = true
			sawRule[f.Rule] = true
		}
		wantClean := false
		var wants []string
		for _, line := range strings.Split(src, "\n") {
			line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), ";"))
			if !strings.HasPrefix(line, "EXPECT ") {
				continue
			}
			w := strings.TrimSpace(strings.TrimPrefix(line, "EXPECT "))
			if w == "clean" {
				wantClean = true
				continue
			}
			wants = append(wants, strings.Join(strings.Fields(w), " "))
		}
		if wantClean && len(findings) != 0 {
			t.Errorf("%s: expected clean, got %v", name, findings)
		}
		if !wantClean && len(wants) == 0 {
			t.Errorf("%s: fixture declares no EXPECT lines", name)
		}
		for _, w := range wants {
			if !got[w] {
				t.Errorf("%s: missing expected finding %q; got %v", name, w, findings)
			}
		}
		// Tie the static verdict to dynamic behavior under every config.
		rules := taintRules(src, t)
		for _, cfg := range configs() {
			rep, ok := probeLeaks(t, src, cfg)
			if !ok {
				t.Errorf("%s/%s: fixture failed to verify", name, cfg.name)
				continue
			}
			assertSound(t, name, src, cfg, rep, rules)
			if wantClean && (rep.rd || rep.te || rep.fan) {
				t.Errorf("%s/%s: clean fixture leaks under interpretation: %+v", name, cfg.name, rep)
			}
		}
	}
	for _, r := range []string{analysis.RuleRobustDeclass, analysis.RuleTransparentEnd, analysis.RuleImplicitFanout} {
		if !sawRule[r] {
			t.Errorf("taint corpus has no true-positive fixture for %s", r)
		}
	}
}

// TestTaintOracleCorpus runs the leak oracle over the positive corpus:
// those programs take no secret arguments, so they must neither leak nor
// lint dirty.
func TestTaintOracleCorpus(t *testing.T) {
	all := corpus.Programs()
	for _, name := range corpus.Names(all) {
		src := all[name]
		if !hasMain(src) {
			continue
		}
		rules := taintRules(src, t)
		if len(rules) != 0 {
			t.Errorf("%s: positive corpus program has taint findings: %v", name, rules)
		}
		for _, cfg := range configs() {
			rep, ok := probeLeaks(t, src, cfg)
			if !ok {
				continue
			}
			assertSound(t, name, src, cfg, rep, rules)
		}
	}
}

// TestTaintOracleRandomized is the main soundness sweep: randomized
// declassify/endorse/publish programs, each interpreted under all nine
// compiler configurations and the probe inputs. Any leak the lint did
// not predict fails the test. Per-rule confusion counts are logged for
// the EXPERIMENTS.md precision/recall table.
func TestTaintOracleRandomized(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	type cell struct{ flaggedLeak, flaggedClean, cleanLeak, cleanClean int }
	stats := map[string]*cell{
		analysis.RuleRobustDeclass:  {},
		analysis.RuleTransparentEnd: {},
		analysis.RuleImplicitFanout: {},
	}
	for i := 0; i < n; i++ {
		src := genTaintProgram(rand.New(rand.NewSource(int64(i))))
		name := fmt.Sprintf("taint-rand-%04d", i)
		p, err := jvm.Parse(src)
		if err != nil {
			t.Fatalf("%s: generated program must parse: %v\n%s", name, err, src)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: generated program must verify: %v\n%s", name, err, src)
		}
		rules := taintRules(src, t)
		var agg leakReport
		for _, cfg := range configs() {
			rep, ok := probeLeaks(t, src, cfg)
			if !ok {
				t.Errorf("%s/%s: generated program failed under config", name, cfg.name)
				continue
			}
			assertSound(t, name, src, cfg, rep, rules)
			agg.rd = agg.rd || rep.rd
			agg.te = agg.te || rep.te
			agg.fan = agg.fan || rep.fan
		}
		for rule, leaked := range map[string]bool{
			analysis.RuleRobustDeclass:  agg.rd,
			analysis.RuleTransparentEnd: agg.te,
			analysis.RuleImplicitFanout: agg.fan,
		} {
			c := stats[rule]
			switch {
			case rules[rule] && leaked:
				c.flaggedLeak++
			case rules[rule]:
				c.flaggedClean++
			case leaked:
				c.cleanLeak++ // soundness failure; assertSound already errored
			default:
				c.cleanClean++
			}
		}
		if t.Failed() {
			t.Logf("failing source for %s:\n%s", name, src)
			return
		}
	}
	for rule, c := range stats {
		t.Logf("%s: flagged+leak=%d flagged-only=%d missed-leak=%d clean=%d",
			rule, c.flaggedLeak, c.flaggedClean, c.cleanLeak, c.cleanClean)
	}
}

// genTaintProgram emits one random declassify/endorse/publish program.
// Static slot 0 is the host's low-integrity input, slots 1-2 are public
// outputs, main's single argument is the secret. The mode picks which
// policy bug (if any) the program embeds; filler helpers add benign
// interprocedural noise.
func genTaintProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("statics 3\n\n")

	nHelpers := r.Intn(3)
	for i := 0; i < nHelpers; i++ {
		fmt.Fprintf(&b, "method th%d args=1 locals=2\n", i)
		for j := 1 + r.Intn(3); j > 0; j-- {
			switch r.Intn(5) {
			case 0:
				b.WriteString("    load 0\n    getfield 0\n    pop\n")
			case 1:
				fmt.Fprintf(&b, "    load 0\n    const %d\n    putfield 0\n", r.Intn(50))
			case 2:
				b.WriteString("    new 1\n    store 1\n    load 1\n    const 7\n    putfield 0\n")
			case 3:
				fmt.Fprintf(&b, "    getstatic %d\n    pop\n", r.Intn(3))
			default:
				fmt.Fprintf(&b, "    const %d\n    putstatic 2\n", r.Intn(9))
			}
		}
		b.WriteString("    return\nend\n\n")
	}

	// mode: 0 clean declass, 1 declass guarded by low input, 2 low data
	// into declassified value, 3 endorse guarded by secret, 4 fanout
	// router, 5 direct secret publish, 6 benign static shuffle, 7 clean
	// endorse.
	mode := r.Intn(8)
	needD := mode <= 2
	needE := mode == 3 || mode == 7
	if needD {
		b.WriteString("secure method dcl args=1 locals=1 minus=1\n")
		b.WriteString("    load 0\n    getfield 0\n    putstatic 1\n    return\nend\n\n")
	}
	if needE {
		b.WriteString("secure method endo args=1 locals=1 integrity=2\n")
		b.WriteString("    load 0\n    const 1\n    putfield 0\n    return\ncatch:\n    return\nend\n\n")
	}

	b.WriteString("method main args=1 locals=2\n")
	b.WriteString("    new 1\n    store 1\n")
	// Benign filler before the mode body: helper calls on the (still
	// secret-free) container and constant publications.
	for j := r.Intn(3); j > 0; j-- {
		if nHelpers > 0 && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "    load 1\n    invoke th%d\n", r.Intn(nHelpers))
		} else {
			fmt.Fprintf(&b, "    const %d\n    putstatic 2\n", r.Intn(9))
		}
	}
	switch mode {
	case 0: // sanctioned: secret into the declassifier, nothing low
		b.WriteString("    load 1\n    load 0\n    putfield 0\n")
		b.WriteString("    load 1\n    invoke dcl\n")
	case 1: // robust-declassification: low input guards the declassify
		b.WriteString("    load 1\n    load 0\n    putfield 0\n")
		b.WriteString("    getstatic 0\n    jmpifnot skip\n")
		b.WriteString("    load 1\n    invoke dcl\nskip:\n")
	case 2: // robust-declassification: low input mixed into the value
		b.WriteString("    load 1\n    getstatic 0\n    load 0\n    add\n    putfield 0\n")
		b.WriteString("    load 1\n    invoke dcl\n")
	case 3: // transparent-endorsement: secret guards the endorse
		b.WriteString("    load 0\n    jmpifnot skip\n")
		b.WriteString("    load 1\n    invoke endo\nskip:\n")
	case 4: // implicit-flow-fanout: the evil router
		b.WriteString("    load 0\n    jmpifnot zero\n")
		b.WriteString("    const 1\n    putstatic 2\n    jmp join\n")
		b.WriteString("zero:\n    const 0\n    putstatic 2\n")
		b.WriteString("join:\n")
	case 5: // implicit-flow-fanout: direct publish of the secret
		b.WriteString("    load 0\n    putstatic 2\n")
	case 6: // benign: public shuffling of the host input only
		b.WriteString("    getstatic 0\n    putstatic 2\n")
		b.WriteString("    const 5\n    putstatic 1\n")
	case 7: // sanctioned: unconditional endorse of a secret-free object
		b.WriteString("    load 1\n    invoke endo\n")
	}
	b.WriteString("    return\nend\n")
	return b.String()
}
