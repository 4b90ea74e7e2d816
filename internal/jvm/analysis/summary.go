package analysis

import (
	"fmt"
	"slices"

	"laminar/internal/jvm"
)

// Result is the output of Attach: the summary table attached to the
// program, indexed by method table slot.
type Result struct {
	Summaries []jvm.Summary
}

type analyzer struct {
	prog  *jvm.Program
	graph *callGraph
	sums  []jvm.Summary
}

// analyze verifies the program and computes the summary table bottom-up
// over call graph SCCs: each component starts from the optimistic top
// summary and iterates its members to a greatest fixpoint (facts only
// shrink, so the iteration terminates). The fixpoint is sound by
// induction over completed sub-executions: a fact consumed from a callee
// summary concerns a call that returned normally, and only normal
// returns feed post-call code. Secure methods keep an all-zero summary,
// so callers learn nothing across a region boundary.
func analyze(p *jvm.Program) (*analyzer, error) {
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("analysis: program does not verify: %w", err)
	}
	a := &analyzer{prog: p, graph: buildCallGraph(p), sums: make([]jvm.Summary, len(p.Methods))}
	for mi, m := range p.Methods {
		if m.Secure != nil {
			a.sums[mi].Ensures = make([]uint8, m.NArgs)
		}
	}
	for _, scc := range a.graph.SCCs {
		var members []int
		for _, mi := range scc {
			if p.Methods[mi].Secure == nil {
				members = append(members, mi)
				a.sums[mi] = topSummary(p.Methods[mi])
			}
		}
		for changed := true; changed; {
			changed = false
			for _, mi := range members {
				ns, old := a.summarize(mi), a.sums[mi]
				if ns.Return != old.Return || ns.Statics != old.Statics || !slices.Equal(ns.Ensures, old.Ensures) {
					a.sums[mi] = ns
					changed = true
				}
			}
		}
	}
	a.entryChecked()
	return a, nil
}

// topSummary is the optimistic starting point for SCC iteration.
func topSummary(m *jvm.Method) jvm.Summary {
	s := jvm.Summary{Ensures: make([]uint8, m.NArgs), Statics: jvm.FactAll}
	for i := range s.Ensures {
		s.Ensures[i] = jvm.FactAll
	}
	if m.ReturnsValue() {
		s.Return = jvm.FactAll
	}
	return s
}

// summarize computes one method's summary from the current table: solve
// the checked-facts problem with no entry assumptions (summaries must
// hold for every caller, including the host), then meet the argument and
// static facts, and the returned value's facts, over all normal-return
// sites. A method with no normal return keeps the vacuous top (post-call
// code is unreachable).
func (a *analyzer) summarize(mi int) jvm.Summary {
	m := a.prog.Methods[mi]
	out := topSummary(m)
	f := a.prog.CheckedFacts(m, m.Code, a.sums)
	f.Walk(func(pc int, s *jvm.FactState) {
		op := m.Code[pc].Op
		if op != jvm.OpReturn && op != jvm.OpReturnVal {
			return
		}
		for k := range out.Ensures {
			out.Ensures[k] &= s.Args[k]
		}
		out.Statics &= s.Stat
		if op == jvm.OpReturnVal {
			out.Return &= f.Operand(s, pc, 0).Bits
		}
	})
	return out
}

// entryChecked computes, for every non-secure method with at least one
// OpInvoke site, the facts proven for each argument at every site. Caller
// states are solved with no entry facts of their own — one conservative
// round, so a fact chain through a wrapper costs one extra kept barrier
// rather than a fixpoint over the whole program.
func (a *analyzer) entryChecked() {
	n := len(a.prog.Methods)
	entry := make([][]uint8, n)
	for mi, m := range a.prog.Methods {
		entry[mi] = make([]uint8, m.NArgs)
		// Host-only entry: arguments never passed any barrier.
		if m.Secure == nil && a.graph.Sites[mi] > 0 {
			for k := range entry[mi] {
				entry[mi][k] = jvm.FactAll
			}
		}
	}
	collect := func(caller *jvm.Method, code []jvm.Instr) {
		f := a.prog.CheckedFacts(caller, code, a.sums)
		f.Walk(func(pc int, s *jvm.FactState) {
			if code[pc].Op != jvm.OpInvoke {
				return
			}
			ci := int(code[pc].A)
			for k := range entry[ci] {
				entry[ci][k] &= f.Operand(s, pc, len(entry[ci])-1-k).Bits
			}
		})
	}
	for _, m := range a.prog.Methods {
		collect(m, m.Code)
		if m.Secure != nil && m.Secure.Catch != nil {
			collect(m, m.Secure.Catch)
		}
	}
	for mi := range entry {
		a.sums[mi].EntryChecked = entry[mi]
	}
}

// Attach analyzes the program and attaches the summary table so
// compilation with CompileOptions.Interproc can consume it.
// Barrier-freedom is decided last, by the compiler's own elimination
// pass running over the just-attached table — the prover and the
// compiler cannot disagree.
func Attach(p *jvm.Program) (*Result, error) {
	a, err := analyze(p)
	if err != nil {
		return nil, err
	}
	p.SetInterproc(a.sums)
	for mi, m := range p.Methods {
		a.sums[mi].BarrierFree = p.RemainingBarriers(m, nil) == 0
	}
	return &Result{Summaries: a.sums}, nil
}
