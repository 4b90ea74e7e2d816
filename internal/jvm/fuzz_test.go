package jvm_test

// Fuzz targets for the assembler front end and the compile+run pipeline.
//
// FuzzParse checks the parser against the Source renderer: any input the
// parser accepts must render back to text that parses again to an
// identical program (fixpoint after one round trip).
//
// FuzzCompileRun checks the runtime's contract: any program that passes
// Verify may be compiled under every barrier mode and executed without
// panicking — denials, type confusion, and budget exhaustion must all
// surface as machine errors. The compiler's own validateCompiled pass
// panics on stack/branch corruption, so this fuzzer also hunts
// barrier-insertion bugs.

import (
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/jvm/corpus"
)

func seedCorpus(f *testing.F) {
	for _, set := range []map[string]string{corpus.Programs(), corpus.Negative()} {
		for _, name := range corpus.Names(set) {
			f.Add(set[name])
		}
	}
	f.Add("method main args=0 locals=1\n    const 1\n    returnval\nend\n")
	f.Add("statics 1\nsecure method r args=1 locals=2 secrecy=1 minus=1\n    load 0\n    getfield 0\n    pop\n    return\ncatch:\n    return\nend\n")
}

func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := jvm.Parse(src)
		if err != nil {
			return
		}
		s1 := p.Source()
		p2, err := jvm.Parse(s1)
		if err != nil {
			t.Fatalf("rendered source does not parse: %v\ninput:\n%s\nrendered:\n%s", err, src, s1)
		}
		if s2 := p2.Source(); s2 != s1 {
			t.Fatalf("round trip is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", s1, s2)
		}
	})
}

func FuzzCompileRun(f *testing.F) {
	seedCorpus(f)
	modes := []jvm.CompileOptions{
		{Mode: jvm.BarrierStatic},
		{Mode: jvm.BarrierStatic, Optimize: true, Inline: true},
		{Mode: jvm.BarrierDynamic, Optimize: true},
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := jvm.Parse(src)
		if err != nil {
			return
		}
		if err := p.Verify(); err != nil {
			return
		}
		for _, opts := range modes {
			// Fresh program per configuration: compiled variants are
			// cached on the method table.
			q, err := jvm.Parse(src)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			mc, err := jvm.NewMachine(q, opts)
			if err != nil {
				t.Fatalf("machine for verified program: %v", err)
			}
			// CompileAll forces every variant through validateCompiled.
			if _, err := q.CompileAll(opts); err != nil {
				t.Fatalf("compile verified program: %v", err)
			}
			mc.MaxInstructions = 50_000
			th, err := jvm.HostThread(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range q.Methods {
				if m.NArgs > 4 {
					continue
				}
				args := make([]jvm.Value, m.NArgs)
				for i := range args {
					args[i] = jvm.IntV(int64(i))
				}
				// Errors (denials, budget, type confusion) are expected;
				// panics are the bug.
				mc.Call(th, m.Name, args...)
			}
		}
	})
}
