package jvm

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestInstructionBudget(t *testing.T) {
	src := `
method spin args=0 locals=0
loop:
    jmp loop
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(p, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc.MaxInstructions = 10000
	_, err = mc.Call(hostThread(t, mc), "spin")
	var te *TrapError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("spin = %v, want budget trap", err)
	}
	// The budget resets per Call.
	p2, _ := Parse("method ok args=0 locals=0\n const 1\n returnval\nend")
	mc2, _ := NewMachine(p2, CompileOptions{})
	mc2.MaxInstructions = 100
	for i := 0; i < 5; i++ {
		if _, err := mc2.Call(hostThread(t, mc2), "ok"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestRandomProgramsNeverCrashTheVM generates random instruction
// sequences. Each either fails verification or — if it verifies — runs to
// completion, traps cleanly, or exhausts its budget. Nothing may escape
// as a raw panic, in any barrier mode.
func TestRandomProgramsNeverCrashTheVM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sourceOps := []Op{
		OpNop, OpConst, OpLoad, OpStore, OpPop, OpDup,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpNeg,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE,
		OpJmp, OpJmpIf, OpJmpIfNot,
		OpNew, OpNewArray, OpGetField, OpPutField,
		OpALoad, OpAStore, OpArrayLen,
		OpGetStatic, OpPutStatic,
		OpReturn, OpReturnVal,
	}
	verified, rejected := 0, 0
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(24)
		code := make([]Instr, n)
		for i := range code {
			op := sourceOps[rng.Intn(len(sourceOps))]
			var a int32
			switch op {
			case OpConst:
				a = int32(rng.Intn(7)) - 3
			case OpLoad, OpStore:
				a = int32(rng.Intn(4))
			case OpJmp, OpJmpIf, OpJmpIfNot:
				a = int32(rng.Intn(n))
			case OpNew:
				a = int32(rng.Intn(3))
			case OpGetField, OpPutField:
				a = int32(rng.Intn(2))
			case OpGetStatic, OpPutStatic:
				a = int32(rng.Intn(2))
			}
			code[i] = Instr{Op: op, A: a}
		}
		// Guarantee a terminal exists somewhere.
		code[n-1] = Instr{Op: OpReturn}

		p := NewProgram(2)
		p.Add(&Method{Name: "m", NArgs: 0, NLocal: 4, Code: code})
		if err := p.Verify(); err != nil {
			rejected++
			continue
		}
		verified++
		for _, mode := range []BarrierMode{BarrierNone, BarrierStatic, BarrierDynamic} {
			p.ResetCompilation()
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("trial %d mode %v: raw panic %v\n%s", trial, mode, e, disassemble(code))
					}
				}()
				mc, err := NewMachine(p, CompileOptions{Mode: mode, Optimize: trial%2 == 0})
				if err != nil {
					t.Fatalf("trial %d: NewMachine after successful Verify: %v", trial, err)
				}
				mc.MaxInstructions = 50000
				// The call may trap (null deref, div-by-zero, array
				// bounds, budget) — any *error* is acceptable; a panic
				// is not. Array bounds panics from Go slices must be
				// caught by the interpreter as traps... the interpreter
				// lets Go's bounds check panic; harden below if needed.
				_, _ = mc.Call(hostThread(t, mc), "m")
			}()
		}
	}
	if verified == 0 {
		t.Error("no random program verified; generator too hostile")
	}
	if rejected == 0 {
		t.Error("no random program rejected; verifier too lax")
	}
	t.Logf("verified=%d rejected=%d", verified, rejected)
}
