// Package jvm implements MiniJVM: a small stack-based bytecode virtual
// machine that stands in for the modified Jikes RVM of Laminar (§5.1, Roy
// et al., PLDI 2009). It exists so the paper's *compiler-level* mechanisms
// can be reproduced faithfully in Go:
//
//   - a baseline compiler that inserts read/write/alloc barriers at every
//     heap access, in three configurations (none / static / dynamic);
//   - method cloning for code reachable both inside and outside security
//     regions;
//   - an intraprocedural, flow-sensitive redundant-barrier-elimination
//     pass ("a barrier is redundant if the object has been read (written),
//     or was allocated, along every incoming path");
//   - a bytecode verifier enforcing the security-region restrictions on
//     local variables and return values.
//
// Security regions are methods (the prototype restriction of §5.1):
// invoking a method marked secure enters a region with the method's
// credentials and leaves it on return; a DIFC violation transfers to the
// method's catch code with region labels in force, and falls through.
package jvm

import "fmt"

// Op is a MiniJVM opcode.
type Op uint8

// The instruction set. Operand meanings are given per opcode; A and B are
// the instruction's immediate operands.
const (
	OpNop Op = iota

	// Stack and locals.
	OpConst // push A
	OpLoad  // push locals[A]
	OpStore // locals[A] = pop
	OpPop   // discard top
	OpDup   // duplicate top

	// Arithmetic and comparison (operate on ints; push int results,
	// comparisons push 0/1).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Control flow. Targets are absolute instruction indices.
	OpJmp      // jump A
	OpJmpIf    // pop; jump A if != 0
	OpJmpIfNot // pop; jump A if == 0

	// Heap. Objects have A field slots; arrays are separate objects.
	OpNew       // push new object with A field slots
	OpNewArray  // pop length; push new array
	OpGetField  // pop obj; push obj.fields[A]
	OpPutField  // pop value, pop obj; obj.fields[A] = value
	OpALoad     // pop idx, pop arr; push arr[idx]
	OpAStore    // pop value, pop idx, pop arr; arr[idx] = value
	OpArrayLen  // pop arr; push len
	OpGetStatic // push statics[A]
	OpPutStatic // statics[A] = pop

	// Calls. A = method index in the program's method table. Arguments
	// are popped (last argument on top); a value-returning callee pushes
	// its result.
	OpInvoke
	OpReturn    // return void
	OpReturnVal // return pop

	// Security barriers, inserted by the compiler — never written by
	// programs (the verifier rejects them in source code). A = stack
	// depth of the object operand (0 = top). They check and leave the
	// stack unchanged.
	OpBarrierRead    // in-region read barrier
	OpBarrierWrite   // in-region write barrier
	OpBarrierOutR    // outside-region read barrier (object must be unlabeled)
	OpBarrierOutW    // outside-region write barrier
	OpBarrierAlloc   // follows OpNew/OpNewArray: labels the fresh object (top) with region labels
	OpBarrierStaticR // static-variable read check (no integrity labels in region)
	OpBarrierStaticW // static-variable write check (no secrecy labels in region)
	OpBarrierSelR    // dynamic read barrier: pops the OpInRegion flag, selects in/out check
	OpBarrierSelW    // dynamic write barrier: pops the OpInRegion flag, selects in/out check

	// Dynamic-barrier support: pushes 1 if the thread is inside a
	// security region. Compiler-only.
	OpInRegion
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpLoad: "load", OpStore: "store",
	OpPop: "pop", OpDup: "dup",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg:   "neg",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt", OpCmpLE: "cmple",
	OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpJmp: "jmp", OpJmpIf: "jmpif", OpJmpIfNot: "jmpifnot",
	OpNew: "new", OpNewArray: "newarray",
	OpGetField: "getfield", OpPutField: "putfield",
	OpALoad: "aload", OpAStore: "astore", OpArrayLen: "arraylen",
	OpGetStatic: "getstatic", OpPutStatic: "putstatic",
	OpInvoke: "invoke", OpReturn: "return", OpReturnVal: "returnval",
	OpBarrierRead: "barrier.r", OpBarrierWrite: "barrier.w",
	OpBarrierOutR: "barrier.or", OpBarrierOutW: "barrier.ow",
	OpBarrierAlloc:   "barrier.alloc",
	OpBarrierStaticR: "barrier.sr", OpBarrierStaticW: "barrier.sw",
	OpBarrierSelR: "barrier.selr", OpBarrierSelW: "barrier.selw",
	OpInRegion: "inregion",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Instr is one MiniJVM instruction.
type Instr struct {
	Op Op
	A  int32
}

// String renders the instruction.
func (i Instr) String() string { return fmt.Sprintf("%s %d", i.Op, i.A) }

// isBarrier reports whether the opcode is compiler-inserted.
func (o Op) isBarrier() bool {
	switch o {
	case OpBarrierRead, OpBarrierWrite, OpBarrierOutR, OpBarrierOutW,
		OpBarrierAlloc, OpBarrierStaticR, OpBarrierStaticW,
		OpBarrierSelR, OpBarrierSelW, OpInRegion:
		return true
	}
	return false
}

// isJump reports whether the opcode has a branch target in A.
func (o Op) isJump() bool {
	return o == OpJmp || o == OpJmpIf || o == OpJmpIfNot
}
