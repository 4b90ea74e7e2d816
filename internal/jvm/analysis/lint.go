package analysis

import (
	"fmt"
	"sort"

	"laminar/internal/jvm"
)

// Finding is one region-safety diagnostic. PC is -1 for method-level
// findings; InCatch marks sites inside a catch block.
type Finding struct {
	Method  string
	PC      int
	InCatch bool
	// Rule is a stable identifier (region-static-read-integrity, ...).
	Rule string
	// Advisory findings flag risky-but-legal patterns; everything else
	// is a guaranteed or conservatively-likely runtime denial.
	Advisory bool
	Msg      string
}

// String formats a finding as method@pc: [rule] msg.
func (f Finding) String() string {
	loc := f.Method
	if f.InCatch {
		loc += ".catch"
	}
	if f.PC >= 0 {
		loc = fmt.Sprintf("%s@%d", loc, f.PC)
	}
	sev := ""
	if f.Advisory {
		sev = " (advisory)"
	}
	return fmt.Sprintf("%s: [%s]%s %s", loc, f.Rule, sev, f.Msg)
}

// Lint reports §5.1 region-restriction violations statically, at
// method/pc granularity, instead of leaving them to surface as runtime
// denials. It mirrors the bytecode verifier's structural region rules
// (reporting all sites, where Verify stops at the first) and adds
// label-aware rules the verifier cannot express:
//
//   - static reads in integrity-labeled regions and static writes in
//     secrecy-labeled regions are guaranteed denials (barrier.sr/sw);
//   - reads of parameter objects in integrity regions and writes to
//     parameter objects in secrecy regions are denied unless the caller
//     passes suitably labeled objects — conservatively flagged, since the
//     analysis cannot see caller heaps;
//   - storing an in-region allocation to a static or into a parameter
//     object lets a labeled reference escape the region, where any later
//     outside access traps on the outside barrier;
//   - a labeled region without a catch block suppresses denials silently;
//   - region code from which no return is reachable never exits the
//     region (found with the backward return-reachability analysis).
//
// Lint requires only structural well-formedness (out-of-range targets
// are tolerated by jvm.BuildCFG); it does not require Verify to pass, so
// verifier rejections and lint findings can be reported together.
func Lint(p *jvm.Program) []Finding {
	var out []Finding
	for _, m := range p.Methods {
		if m.Secure == nil {
			continue
		}
		out = append(out, lintRegion(p, m)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		if out[i].InCatch != out[j].InCatch {
			return !out[i].InCatch
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func lintRegion(p *jvm.Program, m *jvm.Method) []Finding {
	var out []Finding
	add := func(pc int, inCatch bool, rule string, advisory bool, format string, args ...any) {
		out = append(out, Finding{
			Method: m.Name, PC: pc, InCatch: inCatch, Rule: rule, Advisory: advisory,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	labels := m.Secure.Labels

	// Structural rules, mirroring the verifier but reporting every site.
	if m.ReturnsValue() {
		for pc, in := range m.Code {
			if in.Op == jvm.OpReturnVal {
				add(pc, false, "region-returns-value", false,
					"security region returns a value; it would leak through the caller's stack")
			}
		}
	}
	for pc, in := range m.Code {
		switch in.Op {
		case jvm.OpStore:
			if int(in.A) < m.NArgs {
				add(pc, false, "region-param-write", false,
					"security region writes parameter slot %d", in.A)
			}
		case jvm.OpLoad:
			if int(in.A) < m.NArgs && !jvm.DerefFollows(m.Code, pc) {
				add(pc, false, "region-param-value-use", false,
					"parameter slot %d used as a value; regions may only dereference parameters", in.A)
			}
		}
	}
	if !labels.IsEmpty() && m.Secure.Catch == nil {
		add(-1, false, "region-no-catch", true,
			"labeled region has no catch block; denials are suppressed with no handler")
	}

	// Label-aware rules over body and catch (both run with the region's
	// labels).
	lintLabeled(p, m, m.Code, false, add)
	if m.Secure.Catch != nil {
		lintLabeled(p, m, m.Secure.Catch, true, add)
	}
	return out
}

type addFn func(pc int, inCatch bool, rule string, advisory bool, format string, args ...any)

func lintLabeled(p *jvm.Program, m *jvm.Method, code []jvm.Instr, inCatch bool, add addFn) {
	sec := m.Secure.Labels
	hasS := !sec.S.IsEmpty()
	hasI := !sec.I.IsEmpty()

	if hasS || hasI {
		// No summaries: lint runs on unverified programs and must not
		// assume facts that only hold after a full summary computation.
		// Only operand origins (fresh, parameter) matter here.
		f := p.CheckedFacts(m, code, nil)
		f.Walk(func(pc int, s *jvm.FactState) {
			in := code[pc]
			switch in.Op {
			case jvm.OpGetStatic:
				if hasI {
					add(pc, inCatch, "region-static-read-integrity", false,
						"static read in a region with integrity labels %v is always denied (barrier.sr)", sec.I)
				}
			case jvm.OpPutStatic:
				if hasS {
					add(pc, inCatch, "region-static-write-secrecy", false,
						"static write in a region with secrecy labels %v is always denied (barrier.sw)", sec.S)
				}
				if f.Operand(s, pc, 0).Fresh {
					add(pc, inCatch, "region-ref-escape", false,
						"in-region allocation stored to static slot %d escapes the region; any outside access traps", in.A)
				}
			case jvm.OpPutField, jvm.OpAStore:
				obj := f.Operand(s, pc, in.Op.AccessDepth())
				if hasS && obj.Param >= 0 {
					add(pc, inCatch, "region-outer-write", false,
						"write to parameter %d's object is denied unless the caller passes an object labeled with the region's secrecy %v", obj.Param, sec.S)
				}
				if obj.Param >= 0 && !obj.Fresh && f.Operand(s, pc, 0).Fresh {
					add(pc, inCatch, "region-ref-escape", false,
						"in-region allocation stored into parameter %d's object escapes the region; any outside access traps", obj.Param)
				}
			case jvm.OpGetField, jvm.OpALoad, jvm.OpArrayLen:
				obj := f.Operand(s, pc, in.Op.AccessDepth())
				if hasI && obj.Param >= 0 && !obj.Fresh {
					add(pc, inCatch, "region-outer-read", false,
						"read of parameter %d's object is denied unless the caller passes an object labeled with the region's integrity %v", obj.Param, sec.I)
				}
			}
		})
	}

	// Non-fall-through exits: region code from which no return is
	// reachable keeps the region's labels on the thread forever.
	g := jvm.BuildCFG(code)
	reach := jvm.Solve(g, &reachProblem{})
	if len(g.Blocks) > 0 && !bool(*reach[g.BlockOf(0)].(*reachState)) {
		add(-1, inCatch, "region-no-exit", false,
			"no return is reachable from region entry; the region never exits and its labels are never popped")
	}
}

// reachProblem is the backward may-analysis "is a return reachable from
// here": Merge is a union, boundary (at exit blocks) is true, and the
// per-instruction transfer is the identity.
type reachState bool

func (s *reachState) Clone() jvm.State { c := *s; return &c }
func (s *reachState) Merge(other jvm.State) bool {
	o := *other.(*reachState)
	if o && !*s {
		*s = true
		return true
	}
	return false
}

type reachProblem struct{}

func (p *reachProblem) Direction() jvm.Direction { return jvm.Backward }
func (p *reachProblem) Boundary() jvm.State {
	s := reachState(true)
	return &s
}
func (p *reachProblem) Top() jvm.State {
	s := reachState(false)
	return &s
}
func (p *reachProblem) Transfer(b int, s jvm.State) {}
