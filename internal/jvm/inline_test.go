package jvm

import (
	"testing"

	"laminar/internal/difc"
)

// buildCallerCallee makes: getf(o) = o.f0 (leaf, inlinable) and
// main() { o = new; o.f0 = 7; s = 0; loop n: s += getf(o); return s }.
func buildCallerCallee(n int64) *Program {
	p := NewProgram(0)
	getf := &Method{Name: "getf", NArgs: 1, NLocal: 1}
	p.Add(getf)
	getf.Code = NewAsm().Load(0).GetField(0).Op(OpReturnVal).MustBuild()

	main := &Method{Name: "main", NArgs: 0, NLocal: 3}
	p.Add(main)
	main.Code = NewAsm().
		New(1).Store(0).
		Load(0).Const(7).PutField(0).
		Const(0).Store(1).
		Const(0).Store(2).
		Label("loop").
		Load(2).Const(int32Of(n)).Op(OpCmpGE).JmpIf("done").
		Load(1).Load(0).Invoke(getf).Op(OpAdd).Store(1).
		Load(2).Const(1).Op(OpAdd).Store(2).
		Jmp("loop").
		Label("done").
		Load(1).Op(OpReturnVal).MustBuild()
	return p
}

func int32Of(n int64) int64 { return n }

func TestInlinePreservesSemantics(t *testing.T) {
	for _, inline := range []bool{false, true} {
		for _, mode := range []BarrierMode{BarrierNone, BarrierStatic, BarrierDynamic} {
			p := buildCallerCallee(10)
			mc, err := NewMachine(p, CompileOptions{Mode: mode, Inline: inline})
			if err != nil {
				t.Fatal(err)
			}
			v, err := mc.Call(hostThread(t, mc), "main")
			if err != nil {
				t.Fatalf("inline=%v mode=%v: %v", inline, mode, err)
			}
			if v.Int() != 70 {
				t.Errorf("inline=%v mode=%v: main = %d, want 70", inline, mode, v.Int())
			}
			if inline {
				if rep := mc.CompileReport(); rep.InlinedCalls == 0 {
					t.Errorf("mode=%v: nothing inlined", mode)
				}
			}
		}
	}
}

func TestInlineValueReturnOnStack(t *testing.T) {
	// add(a,b) = a+b inlined into an expression context.
	p := NewProgram(0)
	add := &Method{Name: "add", NArgs: 2, NLocal: 2}
	p.Add(add)
	add.Code = NewAsm().Load(0).Load(1).Op(OpAdd).Op(OpReturnVal).MustBuild()
	main := &Method{Name: "main", NArgs: 0, NLocal: 1}
	p.Add(main)
	main.Code = NewAsm().
		Const(3).Const(4).Invoke(add).
		Const(10).Invoke(add). // (3+4)+10
		Op(OpReturnVal).MustBuild()
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 17 {
		t.Fatalf("main = %v, %v", v, err)
	}
	if mc.CompileReport().InlinedCalls != 2 {
		t.Errorf("inlined = %d, want 2", mc.CompileReport().InlinedCalls)
	}
}

func TestInlineBranchyCallee(t *testing.T) {
	// abs(x) with a branch, inlined; checks jump remapping inside the
	// spliced body.
	p := NewProgram(0)
	abs := &Method{Name: "abs", NArgs: 1, NLocal: 1}
	p.Add(abs)
	abs.Code = NewAsm().
		Load(0).Const(0).Op(OpCmpLT).JmpIf("neg").
		Load(0).Op(OpReturnVal).
		Label("neg").
		Load(0).Op(OpNeg).Op(OpReturnVal).MustBuild()
	main := &Method{Name: "main", NArgs: 0, NLocal: 1}
	p.Add(main)
	main.Code = NewAsm().
		Const(-5).Invoke(abs).
		Const(3).Invoke(abs).
		Op(OpAdd).Op(OpReturnVal).MustBuild()
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierNone, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 8 {
		t.Fatalf("main = %v, %v", v, err)
	}
}

func TestInlineSkipsSecureAndBigAndNonLeaf(t *testing.T) {
	p := NewProgram(0)
	// Secure method: never inlined.
	sec := &Method{Name: "sec", NArgs: 1, NLocal: 1, Secure: &SecureInfo{}}
	p.Add(sec)
	sec.Code = NewAsm().Load(0).GetField(0).Op(OpPop).Op(OpReturn).MustBuild()
	// Big method: exceeds inlineMaxSize.
	big := &Method{Name: "big", NArgs: 0, NLocal: 1}
	p.Add(big)
	a := NewAsm()
	for i := 0; i < inlineMaxSize+4; i++ {
		a.Op(OpNop)
	}
	big.Code = a.Op(OpReturn).MustBuild()
	// Non-leaf: calls big.
	nonleaf := &Method{Name: "nonleaf", NArgs: 0, NLocal: 1}
	p.Add(nonleaf)
	nonleaf.Code = NewAsm().Invoke(big).Op(OpReturn).MustBuild()

	main := &Method{Name: "main", NArgs: 0, NLocal: 1}
	p.Add(main)
	main.Code = NewAsm().
		New(1).Store(0).
		Load(0).Invoke(sec).
		Invoke(big).
		Invoke(nonleaf).
		Const(1).Op(OpReturnVal).MustBuild()
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 1 {
		t.Fatalf("main = %v, %v", v, err)
	}
	if rep := mc.CompileReport(); rep.InlinedCalls != 0 {
		t.Errorf("inlined = %d, want 0", rep.InlinedCalls)
	}
	// Regions still entered via the real call.
	if mc.Stats().RegionsEntered != 1 {
		t.Errorf("regions = %d", mc.Stats().RegionsEntered)
	}
}

func TestInlineWidensRedundancyElimination(t *testing.T) {
	// Without inlining, the loop's getf(o) call hides the field access
	// from the caller's dataflow: every iteration's barrier stays (inside
	// getf it is the method's first access). With inlining, the access
	// joins the caller's loop body and a pre-loop check makes it
	// redundant.
	build := func() *Program {
		p := NewProgram(0)
		getf := &Method{Name: "getf", NArgs: 1, NLocal: 1}
		p.Add(getf)
		getf.Code = NewAsm().Load(0).GetField(0).Op(OpReturnVal).MustBuild()
		main := &Method{Name: "main", NArgs: 0, NLocal: 3}
		p.Add(main)
		main.Code = NewAsm().
			New(1).Store(0).
			Load(0).Const(7).PutField(0).
			Load(0).GetField(0).Op(OpPop). // hoisted check
			Const(0).Store(1).
			Const(0).Store(2).
			Label("loop").
			Load(2).Const(100).Op(OpCmpGE).JmpIf("done").
			Load(1).Load(0).Invoke(getf).Op(OpAdd).Store(1).
			Load(2).Const(1).Op(OpAdd).Store(2).
			Jmp("loop").
			Label("done").
			Load(1).Op(OpReturnVal).MustBuild()
		return p
	}
	counts := map[bool]uint64{}
	for _, inline := range []bool{false, true} {
		p := build()
		mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Optimize: true, Inline: inline})
		if err != nil {
			t.Fatal(err)
		}
		v, err := mc.Call(hostThread(t, mc), "main")
		if err != nil || v.Int() != 700 {
			t.Fatalf("inline=%v: main = %v, %v", inline, v, err)
		}
		counts[inline] = mc.Stats().BarrierChecks
	}
	if counts[true] >= counts[false] {
		t.Errorf("inlining did not widen elimination: %d checks with inline vs %d without",
			counts[true], counts[false])
	}
}

func TestInlineWithSecureCallerContext(t *testing.T) {
	// An inlinable leaf called from inside a security region: the access
	// it contributes must get in-region barriers and enforce labels.
	tag := difc.Tag(5)
	p := NewProgram(0)
	getf := &Method{Name: "getf", NArgs: 1, NLocal: 1}
	p.Add(getf)
	getf.Code = NewAsm().Load(0).GetField(0).Op(OpReturnVal).MustBuild()

	sec := &Method{Name: "sec", NArgs: 1, NLocal: 2, Secure: &SecureInfo{
		Labels: difc.Labels{I: difc.NewLabel(tag)},
	}}
	p.Add(sec)
	// Reads an unlabeled object's field while carrying an integrity
	// label: no-read-down violation even through the inlined body.
	sec.Code = NewAsm().Load(0).Invoke(getf).Op(OpPop).Op(OpReturn).MustBuild()

	main := &Method{Name: "main", NArgs: 0, NLocal: 1}
	p.Add(main)
	main.Code = NewAsm().
		New(1).Store(0).
		Load(0).Invoke(sec).
		Const(1).Op(OpReturnVal).MustBuild()

	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 1 {
		t.Fatalf("main = %v, %v", v, err)
	}
	if mc.Stats().Violations != 1 {
		t.Errorf("violations = %d, want 1 (inlined access must still be checked)", mc.Stats().Violations)
	}
}
