package jvm

import "math"

// Peephole optimization, run after inlining and before redundant-barrier
// elimination whenever optimization is enabled. The pass is deliberately
// conservative:
//
//   - folded instructions become OpNop instead of being removed, so no
//     branch target ever needs renumbering inside this pass (the barrier
//     inserter later renumbers everything uniformly anyway);
//   - a pattern only folds when its interior instructions are not branch
//     targets;
//   - div/mod by a constant zero never folds — the runtime trap is the
//     semantics;
//   - folded constants must fit the instruction's int32 operand.
//
// Patterns: constant arithmetic and comparisons, constant-condition
// branches, push-pop elimination, and jump threading through chains of
// unconditional jumps.

// peephole returns an optimized copy of code and the number of
// instructions folded away (turned into nops or retargeted).
func peephole(code []Instr) ([]Instr, int) {
	out := make([]Instr, len(code))
	copy(out, code)
	folded := 0
	for pass := 0; pass < 4; pass++ {
		changed := 0
		jt := jumpTargets(out)
		for pc := 0; pc+1 < len(out); pc++ {
			a := out[pc]
			b := out[pc+1]
			// [const x, pop] -> nops
			if a.Op == OpConst && b.Op == OpPop && !jt[pc+1] {
				out[pc] = Instr{Op: OpNop}
				out[pc+1] = Instr{Op: OpNop}
				changed++
				continue
			}
			// [const x, neg] -> [const -x]
			if a.Op == OpConst && b.Op == OpNeg && !jt[pc+1] && fitsI32(-int64(a.A)) {
				out[pc] = Instr{Op: OpConst, A: int32(-int64(a.A))}
				out[pc+1] = Instr{Op: OpNop}
				changed++
				continue
			}
			// [const c, jmpif/jmpifnot L] -> jmp or nothing
			if a.Op == OpConst && (b.Op == OpJmpIf || b.Op == OpJmpIfNot) && !jt[pc+1] {
				taken := a.A != 0
				if b.Op == OpJmpIfNot {
					taken = !taken
				}
				out[pc] = Instr{Op: OpNop}
				if taken {
					out[pc+1] = Instr{Op: OpJmp, A: b.A}
				} else {
					out[pc+1] = Instr{Op: OpNop}
				}
				changed++
				continue
			}
			// [const a, const b, binop] -> [const result]
			if pc+2 < len(out) && a.Op == OpConst && b.Op == OpConst && !jt[pc+1] && !jt[pc+2] {
				if v, ok := foldBinop(out[pc+2].Op, int64(a.A), int64(b.A)); ok && fitsI32(v) {
					out[pc] = Instr{Op: OpConst, A: int32(v)}
					out[pc+1] = Instr{Op: OpNop}
					out[pc+2] = Instr{Op: OpNop}
					changed += 2
					continue
				}
			}
		}
		// Jump threading: retarget jumps that land on unconditional jumps
		// (or on nops leading to them).
		for pc := range out {
			if !out[pc].Op.isJump() {
				continue
			}
			t := int(out[pc].A)
			for hops := 0; hops < 8; hops++ {
				// Skip nop runs.
				for t < len(out) && out[t].Op == OpNop {
					t++
				}
				if t < len(out) && out[t].Op == OpJmp && int(out[t].A) != t {
					t = int(out[t].A)
					continue
				}
				break
			}
			if t != int(out[pc].A) && t < len(out) {
				out[pc].A = int32(t)
				changed++
			}
		}
		folded += changed
		if changed == 0 {
			break
		}
		// Squeeze the nops out (with branch renumbering) so the next pass
		// sees adjacent instructions and chains of folds compose.
		out = compactNops(out)
	}
	return out, folded
}

// compactNops removes OpNop instructions, remapping branch targets. A
// branch into a nop run lands on the next real instruction.
func compactNops(code []Instr) []Instr {
	newPos := make([]int32, len(code)+1)
	pos := int32(0)
	for pc, in := range code {
		newPos[pc] = pos
		if in.Op != OpNop {
			pos++
		}
	}
	newPos[len(code)] = pos
	out := make([]Instr, 0, pos)
	for _, in := range code {
		if in.Op == OpNop {
			continue
		}
		if in.Op.isJump() {
			in.A = newPos[in.A]
		}
		out = append(out, in)
	}
	return out
}

// foldBinop evaluates a binary opcode on constants; ok is false for
// non-foldable ops and for div/mod by zero (the trap must stay).
func foldBinop(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpCmpEQ:
		return b2i(a == b), true
	case OpCmpNE:
		return b2i(a != b), true
	case OpCmpLT:
		return b2i(a < b), true
	case OpCmpLE:
		return b2i(a <= b), true
	case OpCmpGT:
		return b2i(a > b), true
	case OpCmpGE:
		return b2i(a >= b), true
	default:
		return 0, false
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fitsI32(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }
