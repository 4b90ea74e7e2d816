package analysis

import (
	"slices"
	"testing"

	"laminar/internal/jvm"
)

func parse(t *testing.T, src string) *jvm.Program {
	t.Helper()
	p, err := jvm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

const summarySrc = `
method touch args=1 locals=1
    load 0
    getfield 0
    pop
    load 0
    const 1
    putfield 0
    return
end

method make args=0 locals=0
    new 2
    returnval
end

method main args=0 locals=1
    invoke make
    store 0
    load 0
    invoke touch
    load 0
    getfield 0
    pop
    const 0
    returnval
end
`

func TestSummaries(t *testing.T) {
	p := parse(t, summarySrc)
	r, err := Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int {
		m, err := p.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Index(p.Methods, m)
	}
	touch := r.Summaries[idx("touch")]
	if got := touch.Ensures[0]; got != jvm.FactAll {
		t.Errorf("touch.Ensures[0] = %b, want FactAll", got)
	}
	mk := r.Summaries[idx("make")]
	if mk.Return != jvm.FactAll {
		t.Errorf("make.Return = %b, want FactAll (fresh allocation)", mk.Return)
	}
	if !mk.BarrierFree {
		t.Error("make should be barrier-free (only an allocation)")
	}
	// main stores make's fresh return into slot 0, so touch's argument is
	// proven fully checked at its only call site.
	if got := touch.EntryChecked[0]; got != jvm.FactAll {
		t.Errorf("touch.EntryChecked[0] = %b, want FactAll", got)
	}
	// touch itself cannot be barrier-free: a host entry passes an
	// unchecked argument.
	if touch.BarrierFree {
		t.Error("touch must not be barrier-free")
	}
	mn := r.Summaries[idx("main")]
	if !mn.BarrierFree {
		t.Error("main should be barrier-free: its only access reads a checked fresh object")
	}
	// main has no call sites, so its entry facts must be conservative.
	if len(mn.EntryChecked) != 0 {
		t.Errorf("main.EntryChecked = %v, want empty (no args)", mn.EntryChecked)
	}
}

const recursiveSrc = `
method walk args=1 locals=1
    load 0
    getfield 0
    pop
    load 0
    getfield 1
    jmpifnot done
    load 0
    invoke walk
done:
    return
end

method main args=0 locals=1
    new 2
    store 0
    load 0
    invoke walk
    const 0
    returnval
end
`

func TestRecursiveSCCFixpoint(t *testing.T) {
	p := parse(t, recursiveSrc)
	r, err := Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := p.Lookup("walk")
	sum := r.Summaries[slices.Index(p.Methods, m)]
	if got := sum.Ensures[0]; got != jvm.FactRead {
		t.Errorf("walk.Ensures[0] = %b, want FactRead only (no writes on any path)", got)
	}
	// walk invokes itself, so its SCC has a self-loop.
	if i := slices.Index(p.Methods, m); !slices.Contains(buildCallGraph(p).Callees[i], i) {
		t.Error("walk should be in a self-recursive SCC")
	}
}

func TestSCCBottomUpOrder(t *testing.T) {
	p := parse(t, summarySrc)
	g := buildCallGraph(p)
	pos := make(map[int]int)
	for i, scc := range g.SCCs {
		for _, mi := range scc {
			pos[mi] = i
		}
	}
	main, _ := p.Lookup("main")
	touch, _ := p.Lookup("touch")
	mk, _ := p.Lookup("make")
	if idx := func(m *jvm.Method) int { return slices.Index(p.Methods, m) }; pos[idx(main)] <= pos[idx(touch)] || pos[idx(main)] <= pos[idx(mk)] {
		t.Errorf("callees must precede callers in SCC order: %v", g.SCCs)
	}
}

func TestInterprocBeatsIntraproc(t *testing.T) {
	p := parse(t, summarySrc)
	if _, err := Attach(p); err != nil {
		t.Fatal(err)
	}
	run := func(opts jvm.CompileOptions) jvm.RunStats {
		// Fresh program per config: compiled variants are cached.
		p2 := parse(t, summarySrc)
		if opts.Interproc {
			if _, err := Attach(p2); err != nil {
				t.Fatal(err)
			}
		}
		mc, err := jvm.NewMachine(p2, opts)
		if err != nil {
			t.Fatal(err)
		}
		th, err := jvm.HostThread(p2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Call(th, "main"); err != nil {
			t.Fatal(err)
		}
		return mc.Stats()
	}
	base := run(jvm.CompileOptions{Mode: jvm.BarrierStatic})
	intra := run(jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true})
	inter := run(jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true, Interproc: true})
	if intra.BarrierChecks > base.BarrierChecks {
		t.Errorf("intraproc increased checks: %d > %d", intra.BarrierChecks, base.BarrierChecks)
	}
	if inter.BarrierChecks >= intra.BarrierChecks {
		t.Errorf("interproc should beat intraproc: %d >= %d", inter.BarrierChecks, intra.BarrierChecks)
	}
}

const lintSrc = `
statics 1

secure method bad args=1 locals=2 secrecy=1
    getstatic 0
    pop
    const 7
    putstatic 0
    load 0
    const 1
    putfield 0
    new 1
    putstatic 0
    return
catch:
    return
end

secure method spin args=0 locals=0 secrecy=2
loop:
    jmp loop
end

method main args=0 locals=1
    new 1
    store 0
    load 0
    invoke bad
    return
end
`

func TestLint(t *testing.T) {
	p := parse(t, lintSrc)
	findings := Lint(p)
	want := map[string]int{
		"region-static-write-secrecy": 2, // putstatic at pc 3 and 8
		"region-outer-write":          1, // putfield on the parameter object
		"region-ref-escape":           1, // fresh allocation stored to a static
		"region-no-exit":              1, // spin never returns
		"region-no-catch":             1, // spin has labels but no catch
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Rule]++
	}
	for rule, n := range want {
		if got[rule] != n {
			t.Errorf("rule %s: got %d findings, want %d\nall: %v", rule, got[rule], n, findings)
		}
	}
	for rule := range got {
		if _, ok := want[rule]; !ok {
			t.Errorf("unexpected rule %s in findings %v", rule, findings)
		}
	}
	// No findings on a secrecy-free read: getstatic in a secrecy-only
	// region is legal (barrier.sr checks integrity).
	for _, f := range findings {
		if f.Rule == "region-static-read-integrity" {
			t.Errorf("unexpected static-read finding: %v", f)
		}
	}
}

func TestLintIntegrityRegion(t *testing.T) {
	p := parse(t, `
statics 1
secure method audit args=1 locals=1 integrity=5
    getstatic 0
    pop
    load 0
    getfield 0
    pop
    return
catch:
    return
end
`)
	findings := Lint(p)
	rules := map[string]bool{}
	for _, f := range findings {
		rules[f.Rule] = true
	}
	if !rules["region-static-read-integrity"] {
		t.Errorf("integrity region static read not flagged: %v", findings)
	}
	if !rules["region-outer-read"] {
		t.Errorf("integrity region parameter read not flagged: %v", findings)
	}
}

// TestLintUndefinedInvoke: lint runs on unverified programs, so a stack
// trace that walks back across an invoke of an undefined method must stop
// there instead of indexing past the method table.
func TestLintUndefinedInvoke(t *testing.T) {
	p := parse(t, `
method h args=0 locals=0
    return
end

secure method r args=1 locals=1 secrecy=1
    load 0
    invoke h
    getfield 0
    pop
    return
catch:
    return
end
`)
	p.Methods[1].Code[1].A = 99 // no such method
	Lint(p)
	LintTaint(p)
}

func TestBackwardSolverReachability(t *testing.T) {
	p := parse(t, `
method loopy args=0 locals=1
    const 1
    jmpifnot done
spin:
    jmp spin
done:
    return
end
`)
	m := p.Methods[0]
	cfg := jvm.BuildCFG(m.Code)
	states := jvm.Solve(cfg, &reachProblem{})
	entry := cfg.BlockOf(0)
	spin := cfg.BlockOf(2)
	if !bool(*states[entry].(*reachState)) {
		t.Error("entry should reach a return via the fallthrough edge")
	}
	if bool(*states[spin].(*reachState)) {
		t.Error("the self-loop block must not reach a return")
	}
}

func TestAnalyzeRejectsUnverifiable(t *testing.T) {
	p := jvm.NewProgram(0)
	p.Add(&jvm.Method{Name: "bad", NArgs: 0, NLocal: 0, Code: []jvm.Instr{{Op: jvm.OpPop}, {Op: jvm.OpReturn}}})
	if _, err := analyze(p); err == nil {
		t.Fatal("analyze should refuse an unverifiable program")
	}
}
