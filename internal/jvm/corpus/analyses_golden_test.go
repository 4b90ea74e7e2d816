package corpus_test

// The analyses golden: what the barrier-fact analyses decide for every
// checked-in MiniJVM program and a fixed set of generated ones, rendered
// to testdata/analyses.golden. Per program that verifies it holds the
// per-method summary table (laminar-vet summaries), every barrier site's
// keep/eliminate decision and reason with and without the
// interprocedural summaries (laminar-vet explain), and the compiler's
// barrier counts under each optimizing configuration. Per program, also
// one that does not verify, it holds the lint findings. A change to the
// analyses that moves any of these fails here by name; regenerate with
// -update only when the move is intended.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
	"laminar/internal/jvm/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/analyses.golden")

// goldenSeeds is the number of generated programs (genProgram seeds
// 0..goldenSeeds-1) pinned by one digest line each.
const goldenSeeds = 200

// factString renders fact bits as rw / r- / -w / --, like laminar-vet.
func factString(bits uint8) string {
	b := []byte("--")
	if bits&jvm.FactRead != 0 {
		b[0] = 'r'
	}
	if bits&jvm.FactWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

func factList(facts []uint8) string {
	if len(facts) == 0 {
		return "-"
	}
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = factString(f)
	}
	return strings.Join(parts, ",")
}

// renderDecisions writes every method's barrier decisions; entry picks
// the entry facts of method i (nil for none).
func renderDecisions(b *strings.Builder, p *jvm.Program, entry func(i int) []uint8) {
	for i, m := range p.Methods {
		for _, d := range p.BarrierDecisions(m, entry(i)) {
			verdict := "eliminate"
			if d.Kept {
				verdict = "keep"
			}
			fmt.Fprintf(b, "  %s@%d %s %s %s: %s\n", m.Name, d.PC, d.Op, d.Kind, verdict, d.Reason)
		}
	}
}

// renderAnalyses renders everything the golden pins for one source.
func renderAnalyses(src string) string {
	var b strings.Builder
	p, err := jvm.Parse(src)
	if err != nil {
		return "parse: " + err.Error() + "\n"
	}
	b.WriteString("lint:\n")
	for _, f := range analysis.Lint(p) {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if err := p.Verify(); err != nil {
		fmt.Fprintf(&b, "verify: %v\n", err)
		return b.String()
	}
	b.WriteString("taint:\n")
	for _, f := range analysis.LintTaint(p) {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString("intraprocedural decisions:\n")
	renderDecisions(&b, p, func(int) []uint8 { return nil })
	b.WriteString("compile:\n")
	for _, opts := range []jvm.CompileOptions{
		{Mode: jvm.BarrierStatic, Optimize: true},
		{Mode: jvm.BarrierStatic, Optimize: true, Inline: true},
		{Mode: jvm.BarrierDynamic, Optimize: true},
	} {
		renderCompile(&b, p, opts)
	}

	res, err := analysis.Attach(p)
	if err != nil {
		fmt.Fprintf(&b, "attach: %v\n", err)
		return b.String()
	}
	b.WriteString("summaries:\n")
	for i, m := range p.Methods {
		s := res.Summaries[i]
		kind := "method"
		if m.Secure != nil {
			kind = "region"
		}
		free := ""
		if s.BarrierFree {
			free = "yes"
		}
		fmt.Fprintf(&b, "  %s %s ensures=%s ret=%s statics=%s entry=%s free=%s\n",
			m.Name, kind, factList(s.Ensures), factString(s.Return), factString(s.Statics),
			factList(s.EntryChecked), free)
	}
	b.WriteString("interprocedural decisions:\n")
	renderDecisions(&b, p, func(i int) []uint8 {
		// Invoke-reached code assumes the caller-proven entry facts;
		// secure methods assume none (laminar-vet explain).
		if p.Methods[i].Secure != nil {
			return nil
		}
		return res.Summaries[i].EntryChecked
	})
	b.WriteString("compile:\n")
	for _, opts := range []jvm.CompileOptions{
		{Mode: jvm.BarrierStatic, Interproc: true},
		{Mode: jvm.BarrierStatic, Interproc: true, Inline: true},
		{Mode: jvm.BarrierDynamic, Interproc: true},
	} {
		renderCompile(&b, p, opts)
	}
	return b.String()
}

// renderCompile compiles every variant under opts and writes the report
// and the per-variant barrier counts.
func renderCompile(b *strings.Builder, p *jvm.Program, opts jvm.CompileOptions) {
	p.ResetCompilation()
	rep, err := p.CompileAll(opts)
	if err != nil {
		fmt.Fprintf(b, "  %+v: %v\n", opts, err)
		return
	}
	fmt.Fprintf(b, "  %+v: %+v\n", opts, rep)
	for _, s := range p.BarrierStats() {
		fmt.Fprintf(b, "    %+v\n", s)
	}
	p.ResetCompilation()
}

// tightLocals shrinks every method's declared locals to one, so most
// generated programs stop verifying and lint sees slots past NLocal.
var tightLocals = regexp.MustCompile(`locals=\d+`)

func renderGolden(t *testing.T) string {
	var b strings.Builder
	section := func(name, src string) {
		fmt.Fprintf(&b, "== %s\n%s\n", name, renderAnalyses(src))
	}
	examples, err := filepath.Glob("../../../examples/minijvm/*.mjvm")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		section("examples/minijvm/"+filepath.Base(path), string(src))
	}
	for _, dir := range []struct {
		name  string
		files map[string]string
	}{{"progs", corpus.Programs()}, {"taint", corpus.Taint()}, {"negative", corpus.Negative()}} {
		for _, name := range corpus.Names(dir.files) {
			section(dir.name+"/"+name, dir.files[name])
		}
	}
	b.WriteString("== generated (seed: digest of the rendering, then of its tight-locals variant)\n")
	for i := 0; i < goldenSeeds; i++ {
		src := genProgram(rand.New(rand.NewSource(int64(i))))
		full := sha256.Sum256([]byte(renderAnalyses(src)))
		tight := sha256.Sum256([]byte(renderAnalyses(tightLocals.ReplaceAllString(src, "locals=1"))))
		fmt.Fprintf(&b, "%04d %x %x\n", i, full[:8], tight[:8])
	}
	return b.String()
}

// TestAnalysesGolden compares the rendering with the checked-in golden.
func TestAnalysesGolden(t *testing.T) {
	const path = "testdata/analyses.golden"
	got := renderGolden(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
