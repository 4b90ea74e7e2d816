package jvm

import (
	"fmt"
	"strings"
)

// disassemble renders code with pc labels and symbolic branch targets, for
// compiler debugging and golden tests.
func disassemble(code []Instr) string {
	var b strings.Builder
	targets := map[int32]bool{}
	for _, in := range code {
		if in.Op.isJump() {
			targets[in.A] = true
		}
	}
	for pc, in := range code {
		mark := "  "
		if targets[int32(pc)] {
			mark = "L:"
		}
		switch {
		case in.Op.isJump():
			fmt.Fprintf(&b, "%s%4d  %-12s -> %d\n", mark, pc, in.Op.String(), in.A)
		case hasOperand(in.Op):
			fmt.Fprintf(&b, "%s%4d  %-12s %d\n", mark, pc, in.Op.String(), in.A)
		default:
			fmt.Fprintf(&b, "%s%4d  %s\n", mark, pc, in.Op.String())
		}
	}
	return b.String()
}

// hasOperand reports whether the opcode's A field is meaningful.
func hasOperand(op Op) bool {
	switch op {
	case OpConst, OpLoad, OpStore, OpNew, OpGetField, OpPutField,
		OpGetStatic, OpPutStatic, OpInvoke,
		OpBarrierRead, OpBarrierWrite, OpBarrierOutR, OpBarrierOutW,
		OpBarrierSelR, OpBarrierSelW:
		return true
	}
	return false
}

// Dump renders a whole program: every method's source code and, when
// compiled, each variant — the tool a compiler engineer reaches for first.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, m := range p.Methods {
		kind := ""
		if m.Secure != nil {
			kind = fmt.Sprintf(" secure%v%v", m.Secure.Labels, m.Secure.Caps)
		}
		fmt.Fprintf(&b, "method %s (args=%d locals=%d)%s\n", m.Name, m.NArgs, m.NLocal, kind)
		b.WriteString(disassemble(m.Code))
		if m.Secure != nil && m.Secure.Catch != nil {
			b.WriteString("  catch:\n")
			b.WriteString(disassemble(m.Secure.Catch))
		}
		for vi, v := range m.variants {
			if v == nil {
				continue
			}
			ctx := "outside"
			if vi == 1 {
				ctx = "inside"
			}
			fmt.Fprintf(&b, "  compiled (%s, %d instrs):\n", ctx, len(v.code))
			b.WriteString(disassemble(v.code))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
