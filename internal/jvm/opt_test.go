package jvm

import (
	"testing"

	"laminar/internal/difc"
)

// compileFor compiles a single method body under static-inside context and
// returns the compile stats.
func compileFor(t *testing.T, code []Instr, optimize bool) (int, int) {
	t.Helper()
	p := NewProgram(4)
	m := &Method{Name: "m", NArgs: 1, NLocal: 4, Code: code}
	p.Add(m)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: optimize}, true, false, st)
	return st.barriersEmitted, st.barriersElided
}

func TestElimStraightLineRepeatedRead(t *testing.T) {
	// load 0; getfield; pop; load 0; getfield; pop — second read barrier
	// is redundant.
	code := NewAsm().
		Load(0).GetField(0).Op(OpPop).
		Load(0).GetField(0).Op(OpPop).
		Op(OpReturn).MustBuild()
	emitted, elided := compileFor(t, code, true)
	if emitted != 1 || elided != 1 {
		t.Errorf("emitted=%d elided=%d, want 1/1", emitted, elided)
	}
	// Without optimization both stay.
	emitted, elided = compileFor(t, code, false)
	if emitted != 2 || elided != 0 {
		t.Errorf("unopt emitted=%d elided=%d, want 2/0", emitted, elided)
	}
}

func TestElimReadDoesNotCoverWrite(t *testing.T) {
	// A prior read does not make a write barrier redundant (different
	// rule direction).
	code := NewAsm().
		Load(0).GetField(0).Op(OpPop).
		Load(0).Const(1).PutField(0).
		Op(OpReturn).MustBuild()
	emitted, elided := compileFor(t, code, true)
	if emitted != 2 || elided != 0 {
		t.Errorf("emitted=%d elided=%d, want 2/0", emitted, elided)
	}
}

func TestElimWriteThenWrite(t *testing.T) {
	code := NewAsm().
		Load(0).Const(1).PutField(0).
		Load(0).Const(2).PutField(1).
		Op(OpReturn).MustBuild()
	emitted, elided := compileFor(t, code, true)
	if emitted != 1 || elided != 1 {
		t.Errorf("emitted=%d elided=%d, want 1/1", emitted, elided)
	}
}

func TestElimAllocatedObjectNeedsNoBarriers(t *testing.T) {
	// new; store 1; load 1; putfield; load 1; getfield — allocation
	// covers both directions.
	code := NewAsm().
		New(2).Store(1).
		Load(1).Const(5).PutField(0).
		Load(1).GetField(0).Op(OpPop).
		Op(OpReturn).MustBuild()
	emitted, elided := compileFor(t, code, true)
	if elided != 2 {
		t.Errorf("emitted=%d elided=%d, want 2 elided", emitted, elided)
	}
}

func TestElimStoreInvalidates(t *testing.T) {
	// After re-storing an unknown value into the local, the barrier must
	// come back.
	code := NewAsm().
		Load(0).GetField(0).Op(OpPop).
		Load(0).GetField(1).Store(1).  // unknown object into slot 1
		Load(1).GetField(0).Op(OpPop). // needs barrier
		Load(1).GetField(0).Op(OpPop). // redundant
		Op(OpReturn).MustBuild()
	emitted, elided := compileFor(t, code, true)
	// Four access sites: the first read of slot 0 and the first read of
	// re-stored slot 1 keep barriers; the other two are elided.
	if emitted != 2 || elided != 2 {
		t.Errorf("emitted=%d elided=%d, want 2/2", emitted, elided)
	}
}

func TestElimJoinPathsMustAgree(t *testing.T) {
	// if (c) { read obj } ; read obj — the second read is NOT redundant:
	// only one incoming path checked it.
	code := NewAsm().
		Load(1).jump(OpJmpIfNot, "skip").
		Load(0).GetField(0).Op(OpPop).
		Label("skip").
		Load(0).GetField(0).Op(OpPop).
		Op(OpReturn).MustBuild()
	p := NewProgram(0)
	m := &Method{Name: "m", NArgs: 2, NLocal: 2, Code: code}
	p.Add(m)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st)
	if st.barriersElided != 0 {
		t.Errorf("elided=%d across unbalanced join, want 0", st.barriersElided)
	}
}

func TestElimBothPathsChecked(t *testing.T) {
	// if (c) { read obj } else { read obj }; read obj — now redundant.
	code := NewAsm().
		Load(1).jump(OpJmpIfNot, "else").
		Load(0).GetField(0).Op(OpPop).
		Jmp("join").
		Label("else").
		Load(0).GetField(1).Op(OpPop).
		Label("join").
		Load(0).GetField(0).Op(OpPop).
		Op(OpReturn).MustBuild()
	p := NewProgram(0)
	m := &Method{Name: "m", NArgs: 2, NLocal: 2, Code: code}
	p.Add(m)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st)
	if st.barriersElided != 1 {
		t.Errorf("elided=%d, want 1 (the post-join read)", st.barriersElided)
	}
}

func TestElimLoopHeaderConservative(t *testing.T) {
	// In a loop, the first iteration hasn't checked yet; the loop-body
	// barrier is redundant only if checked before the loop.
	code := NewAsm().
		Const(0).Store(1).
		Label("loop").
		Load(1).Const(10).Op(OpCmpGE).JmpIf("done").
		Load(0).GetField(0).Op(OpPop). // checked on every path? entry path hasn't checked
		Load(1).Const(1).Op(OpAdd).Store(1).
		Jmp("loop").
		Label("done").Op(OpReturn).MustBuild()
	p := NewProgram(0)
	m := &Method{Name: "m", NArgs: 1, NLocal: 2, Code: code}
	p.Add(m)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st)
	if st.barriersElided != 0 {
		t.Errorf("elided=%d in unchecked loop, want 0", st.barriersElided)
	}

	// Hoisted check before the loop makes the body barrier redundant.
	code2 := NewAsm().
		Load(0).GetField(0).Op(OpPop). // pre-loop check
		Const(0).Store(1).
		Label("loop").
		Load(1).Const(10).Op(OpCmpGE).JmpIf("done").
		Load(0).GetField(0).Op(OpPop).
		Load(1).Const(1).Op(OpAdd).Store(1).
		Jmp("loop").
		Label("done").Op(OpReturn).MustBuild()
	p2 := NewProgram(0)
	m2 := &Method{Name: "m", NArgs: 1, NLocal: 2, Code: code2}
	p2.Add(m2)
	if err := p2.Verify(); err != nil {
		t.Fatal(err)
	}
	st2 := &compileStats{}
	p2.compile(m2, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st2)
	if st2.barriersElided != 1 {
		t.Errorf("elided=%d with hoisted check, want 1", st2.barriersElided)
	}
}

func TestElimStaticChecks(t *testing.T) {
	code := NewAsm().
		Emit(OpGetStatic, 0).Op(OpPop).
		Emit(OpGetStatic, 1).Op(OpPop). // redundant static-read check
		Emit(OpPutStatic, 0).Op(OpReturn).MustBuild()
	// PutStatic pops, so push something first... adjust: need value.
	code = NewAsm().
		Emit(OpGetStatic, 0).Op(OpPop).
		Emit(OpGetStatic, 1).Op(OpPop).
		Const(1).Emit(OpPutStatic, 0).
		Const(2).Emit(OpPutStatic, 1).
		Op(OpReturn).MustBuild()
	p := NewProgram(4)
	m := &Method{Name: "m", NArgs: 0, NLocal: 1, Code: code}
	p.Add(m)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st)
	// One read check + one write check stay; one of each elided.
	if st.barriersEmitted != 2 || st.barriersElided != 2 {
		t.Errorf("emitted=%d elided=%d, want 2/2", st.barriersEmitted, st.barriersElided)
	}
}

func TestElimPreservesSemantics(t *testing.T) {
	// The secured program must behave identically with and without the
	// optimization, including the violation being raised.
	tag := difc.Tag(1)
	for _, optimize := range []bool{false, true} {
		p, fill, _ := secureProgram(tag)
		fill.Secure.Catch = NewAsm().Op(OpReturn).MustBuild()
		mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Optimize: optimize})
		if err != nil {
			t.Fatal(err)
		}
		_, err = mc.Call(hostThread(t, mc), "main")
		if err == nil {
			t.Errorf("optimize=%v: expected trap after suppressed violation", optimize)
		}
		if mc.Stats().Violations != 1 {
			t.Errorf("optimize=%v: violations = %d", optimize, mc.Stats().Violations)
		}
	}
}

func TestElimReducesRuntimeChecks(t *testing.T) {
	// A hot loop over an object checked once before the loop: optimized
	// runs should perform far fewer barrier checks.
	build := func() *Program {
		p := NewProgram(0)
		m := &Method{Name: "hot", NArgs: 0, NLocal: 2}
		p.Add(m)
		m.Code = NewAsm().
			New(1).Store(0).
			Load(0).Const(0).PutField(0).
			Const(0).Store(1).
			Label("loop").
			Load(1).Const(1000).Op(OpCmpGE).JmpIf("done").
			Load(0).Load(0).GetField(0).Const(1).Op(OpAdd).PutField(0).
			Load(1).Const(1).Op(OpAdd).Store(1).
			Jmp("loop").
			Label("done").
			Load(0).GetField(0).Op(OpReturnVal).MustBuild()
		return p
	}
	counts := map[bool]uint64{}
	for _, optimize := range []bool{false, true} {
		p := build()
		mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic, Optimize: optimize})
		if err != nil {
			t.Fatal(err)
		}
		v, err := mc.Call(hostThread(t, mc), "hot")
		if err != nil || v.Int() != 1000 {
			t.Fatalf("optimize=%v: hot = %v, %v", optimize, v, err)
		}
		counts[optimize] = mc.Stats().BarrierChecks
	}
	if counts[true] >= counts[false] {
		t.Errorf("optimized checks %d >= unoptimized %d", counts[true], counts[false])
	}
}
