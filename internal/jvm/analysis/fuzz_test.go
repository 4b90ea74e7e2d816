package analysis_test

// FuzzLint checks the lint's no-panic contract: every program the parser
// accepts, whether or not it verifies, runs through the region lint and
// the taint lint without panicking. Lint and the compiler share the CFG,
// solver and stack tracer in package jvm, and lint sees programs the
// verifier would reject (undefined callees, bad branch targets, stack
// underflow), which compilation never does.

import (
	"testing"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
	"laminar/internal/jvm/corpus"
)

func FuzzLint(f *testing.F) {
	for _, set := range []map[string]string{corpus.Programs(), corpus.Negative()} {
		for _, name := range corpus.Names(set) {
			f.Add(set[name])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := jvm.Parse(src)
		if err != nil {
			return
		}
		analysis.Lint(p)
		analysis.LintTaint(p)
	})
}
