package jvm

import "fmt"

// VerifyError reports a bytecode verification failure.
type VerifyError struct {
	Method string
	PC     int
	Msg    string
}

// Error formats the failure.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("jvm: verify %s@%d: %s", e.Method, e.PC, e.Msg)
}

// returnsValue reports whether the method returns a value. A method must
// be consistent: mixing OpReturn and OpReturnVal is rejected by Verify.
func (m *Method) returnsValue() bool {
	for _, in := range m.Code {
		if in.Op == OpReturnVal {
			return true
		}
	}
	return false
}

// Verify checks a whole program: stack discipline, branch targets, local
// slot bounds, call indices, and the security-region restrictions of §5.1.
// It also records each method's maximum stack depth for frame allocation.
// Programs must verify before Compile.
//
// Verification is memoized. Mutating a verified program's methods in
// place is a caller error, and an enforced one: the memoized path
// re-fingerprints the method table and returns a VerifyError on mismatch
// instead of silently blessing stale verification state. (Program.Add
// legitimately extends a verified program; it clears the memo so the next
// Verify runs in full.)
func (p *Program) Verify() error {
	if p.verified {
		if fp := p.fingerprint(); fp != p.verifiedFP {
			return &VerifyError{Method: "(program)", PC: 0,
				Msg: "method table mutated after verification; verified state is stale"}
		}
		return nil
	}
	for _, m := range p.Methods {
		if err := p.verifyMethod(m); err != nil {
			return err
		}
	}
	p.verified = true
	p.verifiedFP = p.fingerprint()
	return nil
}

func (p *Program) verifyMethod(m *Method) error {
	if m.NArgs < 0 || m.NLocal < m.NArgs {
		return &VerifyError{m.Name, 0, fmt.Sprintf("bad locals: %d args, %d slots", m.NArgs, m.NLocal)}
	}
	if len(m.Code) == 0 {
		return &VerifyError{m.Name, 0, "empty code"}
	}
	max, err := p.verifyCode(m, m.Code, false)
	if err != nil {
		return err
	}
	m.maxStack = max
	if m.Secure != nil {
		if err := p.verifySecureRestrictions(m); err != nil {
			return err
		}
		if m.Secure.Catch != nil {
			cmax, err := p.verifyCode(m, m.Secure.Catch, true)
			if err != nil {
				return err
			}
			if cmax > m.maxStack {
				m.maxStack = cmax
			}
		}
	}
	return nil
}

// StackEffect returns (pops, pushes) for the opcode. OpInvoke's effect
// depends on the callee (see Program.effect); barrier opcodes report
// their runtime effect (only the select barriers pop the OpInRegion
// flag).
func (o Op) StackEffect() (pops, pushes int) {
	switch o {
	case OpNop, OpJmp, OpReturn:
		return 0, 0
	case OpConst, OpLoad, OpGetStatic, OpNew, OpInRegion:
		return 0, 1
	case OpStore, OpPop, OpJmpIf, OpJmpIfNot, OpPutStatic, OpReturnVal,
		OpBarrierSelR, OpBarrierSelW:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpAdd, OpSub, OpMul, OpDiv, OpMod,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
		return 2, 1
	case OpNeg, OpNewArray, OpGetField, OpArrayLen:
		return 1, 1
	case OpPutField:
		return 2, 0
	case OpALoad:
		return 2, 1
	case OpAStore:
		return 3, 0
	default:
		return 0, 0
	}
}

// effect returns (pops, pushes) for one instruction, resolving an
// OpInvoke's effect from its callee. ok is false for an invoke of an
// undefined method.
func (p *Program) effect(in Instr) (pops, pushes int, ok bool) {
	if in.Op != OpInvoke {
		pops, pushes = in.Op.StackEffect()
		return pops, pushes, true
	}
	if in.A < 0 || int(in.A) >= len(p.Methods) {
		return 0, 0, false
	}
	callee := p.Methods[in.A]
	if callee.returnsValue() {
		pushes = 1
	}
	return callee.NArgs, pushes, true
}

// verifyCode abstract-interprets stack depth over the CFG, rejecting
// underflow, inconsistent depths at join points, bad targets and bad
// operands. isCatch restricts the terminal to OpReturn.
func (p *Program) verifyCode(m *Method, code []Instr, isCatch bool) (int, error) {
	const unvisited = -1
	depth := make([]int, len(code))
	for i := range depth {
		depth[i] = unvisited
	}
	work := []int{0}
	depth[0] = 0
	maxDepth := 0
	retVal := m.returnsValue()

	flow := func(from, to, d int) error {
		if to < 0 || to >= len(code) {
			return &VerifyError{m.Name, from, fmt.Sprintf("branch target %d out of range", to)}
		}
		if depth[to] == unvisited {
			depth[to] = d
			work = append(work, to)
		} else if depth[to] != d {
			return &VerifyError{m.Name, from, fmt.Sprintf("inconsistent stack depth at join %d: %d vs %d", to, depth[to], d)}
		}
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code[pc]
		d := depth[pc]

		if in.Op.isBarrier() {
			return 0, &VerifyError{m.Name, pc, fmt.Sprintf("barrier opcode %v in source code", in.Op)}
		}
		pops, pushes, ok := p.effect(in)
		if !ok {
			return 0, &VerifyError{m.Name, pc, fmt.Sprintf("invoke of undefined method %d", in.A)}
		}
		switch in.Op {
		case OpLoad, OpStore:
			if int(in.A) < 0 || int(in.A) >= m.NLocal {
				return 0, &VerifyError{m.Name, pc, fmt.Sprintf("local slot %d out of range", in.A)}
			}
		case OpGetField, OpPutField, OpGetStatic, OpPutStatic, OpNew:
			if in.A < 0 {
				return 0, &VerifyError{m.Name, pc, "negative operand"}
			}
			if (in.Op == OpGetStatic || in.Op == OpPutStatic) && int(in.A) >= p.NStatics {
				return 0, &VerifyError{m.Name, pc, fmt.Sprintf("static slot %d out of range", in.A)}
			}
		case OpReturnVal:
			if retVal && isCatch {
				return 0, &VerifyError{m.Name, pc, "catch block may not return a value"}
			}
			if !retVal {
				return 0, &VerifyError{m.Name, pc, "returnval in void method"}
			}
		case OpReturn:
			if retVal && !isCatch {
				return 0, &VerifyError{m.Name, pc, "void return in value-returning method"}
			}
		}
		if d < pops {
			return 0, &VerifyError{m.Name, pc, fmt.Sprintf("stack underflow: depth %d, need %d", d, pops)}
		}
		nd := d - pops + pushes
		if nd > maxDepth {
			maxDepth = nd
		}
		switch {
		case in.Op == OpReturn || in.Op == OpReturnVal:
			// terminal
		case in.Op == OpJmp:
			if err := flow(pc, int(in.A), nd); err != nil {
				return 0, err
			}
		case in.Op == OpJmpIf || in.Op == OpJmpIfNot:
			if err := flow(pc, int(in.A), nd); err != nil {
				return 0, err
			}
			if err := flow(pc, pc+1, nd); err != nil {
				return 0, err
			}
		default:
			if pc+1 >= len(code) {
				return 0, &VerifyError{m.Name, pc, "control falls off end of code"}
			}
			if err := flow(pc, pc+1, nd); err != nil {
				return 0, err
			}
		}
	}
	return maxDepth, nil
}

// verifySecureRestrictions enforces the §5.1 prototype rules for security
// region methods, which a production system would fold into bytecode
// verification (as we do here):
//
//  1. a secure method returns no value (its region has labels; a return
//     value would leak through the caller's stack);
//  2. its parameters are reference-typed and are only dereferenced —
//     loads of parameter slots must feed field/array accesses or calls,
//     and parameter slots are never stored to;
//  3. it may not contain a value return even on catch paths.
func (p *Program) verifySecureRestrictions(m *Method) error {
	if m.returnsValue() {
		return &VerifyError{m.Name, 0, "security region method returns a value"}
	}
	for pc, in := range m.Code {
		switch in.Op {
		case OpStore:
			if int(in.A) < m.NArgs {
				return &VerifyError{m.Name, pc, fmt.Sprintf("security region writes parameter slot %d", in.A)}
			}
		case OpLoad:
			if int(in.A) < m.NArgs {
				if !DerefFollows(m.Code, pc) {
					return &VerifyError{m.Name, pc, fmt.Sprintf("security region reads parameter slot %d as a value (only dereference is allowed)", in.A)}
				}
			}
		}
	}
	return nil
}

// DerefFollows reports whether the value pushed at pc is consumed by a
// dereference-style instruction or a call: the §5.1 rule for parameter
// uses in a security region, shared by the verifier and the region lint.
// It scans forward over pushes that stack on top (a conservative pattern
// sufficient for parameter uses like "load p; const i;
// putfield/aload/invoke").
func DerefFollows(code []Instr, pc int) bool {
	height := 0 // operands stacked on top of the loaded parameter
	for i := pc + 1; i < len(code); i++ {
		op := code[i].Op
		if op == OpInvoke {
			// Calls consume parameters by reference; allowed.
			return true
		}
		pops, pushes := op.StackEffect()
		if pops > height {
			// This instruction consumes the parameter value.
			switch op {
			case OpGetField, OpPutField, OpALoad, OpAStore, OpArrayLen:
				return true
			default:
				return false
			}
		}
		if op.isJump() || op == OpReturn || op == OpReturnVal {
			return false
		}
		height = height - pops + pushes
	}
	return false
}
