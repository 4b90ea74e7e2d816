package analysis

import (
	"fmt"

	"laminar/internal/jvm"
)

// Summary is one method's interprocedural contract, computed bottom-up
// over the call graph. Secure methods are opaque boundaries (checks inside
// run against the region's labels, not the caller's), so their summaries
// are empty and they receive no entry facts.
type Summary struct {
	// Ensures[k]: fact bits the method establishes for the object passed
	// as parameter k on every path to every normal return.
	Ensures []uint8
	// Return: fact bits carried by the return value on every path
	// (FactAll for factories returning fresh allocations).
	Return uint8
	// Statics: FactRead/FactWrite bits for checked static accesses the
	// method performs on every path to every normal return.
	Statics uint8
	// EntryChecked[k]: fact bits proven for argument k at every OpInvoke
	// site in the program (zero for host-only and secure methods).
	EntryChecked []uint8
	// BarrierFree: the compiler's own elimination pass keeps zero
	// access/static barrier sites even with conservative entry facts.
	BarrierFree bool
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil || s.Return != o.Return || s.Statics != o.Statics || len(s.Ensures) != len(o.Ensures) {
		return false
	}
	for i := range s.Ensures {
		if s.Ensures[i] != o.Ensures[i] {
			return false
		}
	}
	return true
}

// Result is the output of analyze: per-method summaries plus the call
// graph they were computed over, indexed by method table slot.
type Result struct {
	Prog      *jvm.Program
	Graph     *CallGraph
	Summaries []*Summary
}

type analyzer struct {
	prog  *jvm.Program
	graph *CallGraph
	sums  []*Summary
}

// summaryOf returns the (possibly still-iterating) summary for a method,
// or nil when no facts may be assumed. Secure methods hold an all-zero
// summary, so callers naturally learn nothing across a region boundary.
func (a *analyzer) summaryOf(mi int) *Summary {
	if mi < 0 || mi >= len(a.sums) {
		return nil
	}
	return a.sums[mi]
}

// analyze verifies the program and computes summaries bottom-up over call
// graph SCCs: each component starts from the optimistic top summary and
// iterates its members to a greatest fixpoint (facts only shrink, so the
// iteration terminates). The fixpoint is sound by induction over completed
// sub-executions: a fact consumed from a callee summary concerns a call
// that returned normally, and only normal returns feed post-call code.
func analyze(p *jvm.Program) (*Result, error) {
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("analysis: program does not verify: %w", err)
	}
	a := &analyzer{
		prog:  p,
		graph: buildCallGraph(p),
		sums:  make([]*Summary, len(p.Methods)),
	}
	for mi, m := range p.Methods {
		if m.Secure != nil {
			a.sums[mi] = &Summary{Ensures: make([]uint8, m.NArgs)}
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
				ns := a.summarize(mi)
				if !ns.equal(a.sums[mi]) {
					a.sums[mi] = ns
					changed = true
				}
			}
		}
	}
	a.entryChecked()
	return &Result{Prog: p, Graph: a.graph, Summaries: a.sums}, nil
}

// topSummary is the optimistic starting point for SCC iteration.
func topSummary(m *jvm.Method) *Summary {
	s := &Summary{Ensures: make([]uint8, m.NArgs), Statics: jvm.FactAll}
	for i := range s.Ensures {
		s.Ensures[i] = jvm.FactAll
	}
	if m.ReturnsValue() {
		s.Return = jvm.FactAll
	}
	return s
}

// summarize computes one method's summary from the current table: solve
// the checked-facts problem with no entry assumptions (summaries must hold
// for every caller, including the host), then meet the argument and
// static facts over all normal-return sites. A method with no normal
// return keeps the vacuous top (post-call code is unreachable).
func (a *analyzer) summarize(mi int) *Summary {
	m := a.prog.Methods[mi]
	pr := a.problemFor(m, m.Code, nil)
	states := jvm.Solve(pr.cfg, pr)

	out := topSummary(m)
	for bi, b := range pr.cfg.Blocks {
		last := pr.cfg.Code[b.End-1]
		if last.Op != jvm.OpReturn && last.Op != jvm.OpReturnVal {
			continue
		}
		s := states[bi].Clone().(*factState)
		for pc := b.Start; pc < b.End-1; pc++ {
			pr.step(s, pc)
		}
		for k := range out.Ensures {
			if k < len(s.args) {
				out.Ensures[k] &= s.args[k]
			} else {
				out.Ensures[k] = 0
			}
		}
		out.Statics &= s.stat
		if last.Op == jvm.OpReturnVal {
			bits, _, _ := pr.valueFacts(s, b.End-1, 0)
			out.Return &= bits
		}
	}
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
	seen := make([]bool, n)
	for mi, m := range a.prog.Methods {
		entry[mi] = make([]uint8, m.NArgs)
		if m.Secure == nil {
			for k := range entry[mi] {
				entry[mi][k] = jvm.FactAll
			}
		}
	}
	collect := func(caller *jvm.Method, code []jvm.Instr) {
		pr := a.problemFor(caller, code, nil)
		states := jvm.Solve(pr.cfg, pr)
		for pc, in := range code {
			if in.Op != jvm.OpInvoke {
				continue
			}
			ci := int(in.A)
			if ci < 0 || ci >= n || a.prog.Methods[ci].Secure != nil {
				continue
			}
			callee := a.prog.Methods[ci]
			if callee.NArgs == 0 {
				seen[ci] = true
				continue
			}
			s := pr.stateAt(states, pc)
			for k := 0; k < callee.NArgs; k++ {
				bits, _, _ := pr.valueFacts(s, pc, callee.NArgs-1-k)
				entry[ci][k] &= bits
			}
			seen[ci] = true
		}
	}
	for _, m := range a.prog.Methods {
		collect(m, m.Code)
		if m.Secure != nil && m.Secure.Catch != nil {
			collect(m, m.Secure.Catch)
		}
	}
	for mi := range entry {
		if !seen[mi] {
			// Host-only entry: arguments never passed any barrier.
			for k := range entry[mi] {
				entry[mi][k] = 0
			}
		}
		a.sums[mi].EntryChecked = entry[mi]
	}
}

// Attach analyzes the program and attaches the results so compilation
// with CompileOptions.Interproc can consume them. Barrier-freedom is
// decided last, by the compiler's own elimination pass running over the
// just-attached summaries — the prover and the compiler cannot disagree.
func Attach(p *jvm.Program) (*Result, error) {
	r, err := analyze(p)
	if err != nil {
		return nil, err
	}
	n := len(p.Methods)
	ip := &jvm.InterprocResult{
		Ensures:       make([][]uint8, n),
		Return:        make([]uint8, n),
		EntryChecked:  make([][]uint8, n),
		EnsuresStatic: make([]uint8, n),
		BarrierFree:   make([]bool, n),
	}
	for mi, sum := range r.Summaries {
		ip.Ensures[mi] = sum.Ensures
		ip.Return[mi] = sum.Return
		ip.EntryChecked[mi] = sum.EntryChecked
		ip.EnsuresStatic[mi] = sum.Statics
	}
	p.SetInterproc(ip)
	for mi, m := range p.Methods {
		if p.RemainingBarriers(m, nil) == 0 {
			ip.BarrierFree[mi] = true
			r.Summaries[mi].BarrierFree = true
		}
	}
	return r, nil
}
