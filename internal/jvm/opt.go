package jvm

// This file applies the redundant-barrier-elimination optimization of
// §5.1: "We implement an intraprocedural, flow-sensitive data-flow
// analysis that identifies redundant barriers and removes them." The
// analysis is the checked-facts problem (facts.go); a barrier site is
// redundant when its operand's facts just before the site already
// include the site's check. Operands that cannot be traced to a fresh
// allocation, a local load or (with summaries) a call keep their
// barriers.
//
// When summaries are attached (CompileOptions.Interproc) the same pass
// consumes them: entry facts seed parameter slots with checks proven at
// every call site, an invoke credits its arguments with the callee's
// Ensures facts, a call's result carries the callee's Return facts, and
// the stack tracer walks through calls, since a call never touches stack
// values below its arguments. Without summaries an invoke transfers
// nothing.

// checkBarriers calls visit for every access and static barrier site of
// code, in pc order, with the reason its barrier is redundant or "" when
// it must stay. ip is the attached summary table or nil; entry seeds the
// leading (parameter) slots' facts, nil for none. Slots are sized from
// the code itself, so inlined bodies' extra locals are tracked too.
func (p *Program) checkBarriers(ip []Summary, code []Instr, entry []uint8, visit func(pc int, reason string)) {
	nLocal := maxLocalSlot(code) + 1
	if len(entry) > nLocal {
		nLocal = len(entry)
	}
	pr := &checkedProblem{p: p, g: BuildCFG(code), nLocal: nLocal, entry: entry, sums: ip, throughCalls: ip != nil}
	f := pr.solve()
	f.Walk(func(pc int, s *FactState) {
		if op := code[pc].Op; accessDepth(op) >= 0 || op == OpGetStatic || op == OpPutStatic {
			visit(pc, f.redundant(s, pc))
		}
	})
}

// eliminateRedundant clears in need, which starts as allBarriers(code),
// every barrier the checked facts prove redundant.
func (p *Program) eliminateRedundant(ip []Summary, code []Instr, need barrierNeed, entry []uint8) barrierNeed {
	p.checkBarriers(ip, code, entry, func(pc int, reason string) {
		if reason != "" {
			need.access[pc], need.static[pc] = false, false
		}
	})
	return need
}

func maxLocalSlot(code []Instr) int {
	max := 0
	for _, in := range code {
		if (in.Op == OpLoad || in.Op == OpStore) && int(in.A) > max {
			max = int(in.A)
		}
	}
	return max
}
