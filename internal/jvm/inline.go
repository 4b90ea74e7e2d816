package jvm

// Method inlining. §5.1 notes that the redundant-barrier-elimination pass
// is intraprocedural "but the compiler already inlines small and hot
// methods, increasing the scope of redundancy elimination". This pass
// reproduces that interaction: small leaf methods are spliced into their
// callers before barrier insertion, so accesses that were hidden behind a
// call boundary become visible to the dataflow analysis.
//
// Inlining policy: a callee is inlined when it is (a) not a security
// region (region entry has semantics a splice must not erase), (b) a leaf
// (no OpInvoke — depth-1 inlining keeps the pass simple and bounded),
// and (c) at most inlineMaxSize instructions.

// inlineMaxSize bounds inlinable callee bodies.
const inlineMaxSize = 24

// inlinable reports whether callee may be spliced into a caller.
func inlinable(callee *Method) bool {
	if callee.Secure != nil || len(callee.Code) > inlineMaxSize {
		return false
	}
	for _, in := range callee.Code {
		if in.Op == OpInvoke {
			return false
		}
	}
	return true
}

// inlineCalls returns code with every inlinable call site expanded, plus
// the new local-slot count (each site gets a fresh frame of callee locals
// appended to the caller's). Jump targets
// are remapped across the expansion, and the callee's returns become
// jumps past the splice.
func (p *Program) inlineCalls(code []Instr, nLocal int, st *compileStats) ([]Instr, int) {
	// Pass 1: site lengths and new positions.
	siteLen := func(in Instr) int {
		if in.Op != OpInvoke {
			return 0
		}
		callee := p.Methods[in.A]
		if !inlinable(callee) {
			return 0
		}
		// arg stores + body (1:1 length: returns become jumps)
		return callee.NArgs + len(callee.Code)
	}
	newPos := make([]int32, len(code)+1)
	pos := int32(0)
	expanded := false
	for pc, in := range code {
		newPos[pc] = pos
		if n := siteLen(in); n > 0 {
			pos += int32(n)
			expanded = true
		} else {
			pos++
		}
	}
	newPos[len(code)] = pos
	if !expanded {
		return code, nLocal
	}

	// Pass 2: emit with remapping.
	out := make([]Instr, 0, pos)
	for _, in := range code {
		if in.Op.isJump() {
			out = append(out, Instr{Op: in.Op, A: newPos[in.A]})
			continue
		}
		if n := siteLen(in); n > 0 {
			callee := p.Methods[in.A]
			base := int32(nLocal)
			nLocal += callee.NLocal
			st.inlinedCalls++
			// Pop arguments into the inlined frame: the last argument is
			// on top, so it stores to the highest slot first.
			for a := callee.NArgs - 1; a >= 0; a-- {
				out = append(out, Instr{Op: OpStore, A: base + int32(a)})
			}
			bodyStart := int32(len(out))
			end := bodyStart + int32(len(callee.Code))
			for _, ci := range callee.Code {
				switch {
				case ci.Op == OpLoad || ci.Op == OpStore:
					out = append(out, Instr{Op: ci.Op, A: ci.A + base})
				case ci.Op.isJump():
					out = append(out, Instr{Op: ci.Op, A: bodyStart + ci.A})
				case ci.Op == OpReturn || ci.Op == OpReturnVal:
					// A value return leaves its result on the stack,
					// exactly where the caller expects it.
					out = append(out, Instr{Op: OpJmp, A: end})
				default:
					out = append(out, ci)
				}
			}
			continue
		}
		out = append(out, in)
	}
	return out, nLocal
}
