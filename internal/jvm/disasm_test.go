package jvm

import (
	"strings"
	"testing"

	"laminar/internal/difc"
)

func TestDisassemble(t *testing.T) {
	code := NewAsm().
		Const(3).Store(0).
		Label("loop").
		Load(0).Const(0).Op(OpCmpLE).JmpIf("done").
		Load(0).Const(1).Op(OpSub).Store(0).
		Jmp("loop").
		Label("done").Op(OpReturn).MustBuild()
	out := disassemble(code)
	for _, want := range []string{"const", "store", "jmpif", "-> ", "L:"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	// Branch-target lines are marked.
	if !strings.Contains(out, "L:   2") {
		t.Errorf("loop header not marked:\n%s", out)
	}
}

func TestDumpShowsCompiledVariants(t *testing.T) {
	tag := difc.Tag(1)
	p, _, _ := secureProgram(tag)
	if _, err := p.CompileAll(CompileOptions{Mode: BarrierStatic}); err != nil {
		t.Fatal(err)
	}
	out := p.Dump()
	for _, want := range []string{"method fill", "secure", "method main", "compiled", "barrier."} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := OpNop; op <= OpInRegion; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op") && op != Op(200) {
			// All defined opcodes must have names.
			if strings.HasPrefix(s, "op") {
				t.Errorf("opcode %d has no name", op)
			}
		}
	}
	if Op(200).String() != "op200" {
		t.Errorf("unknown opcode String = %q", Op(200).String())
	}
}
