package jvm

import (
	"strings"
	"testing"
)

// Golden tests: the exact compiled form of a canonical method under each
// barrier configuration. These lock down barrier placement — a change
// here is a change to the enforcement surface and should be deliberate.

// canonicalSrc reads a field, writes a field, and allocates.
const canonicalSrc = `
method canon args=1 locals=2
    load 0
    getfield 0
    pop
    load 0
    const 7
    putfield 1
    new 2
    store 1
    return
end
`

func compileCanon(t *testing.T, opts CompileOptions, inRegion bool) string {
	t.Helper()
	p, err := Parse(canonicalSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	m, err := p.Lookup("canon")
	if err != nil {
		t.Fatal(err)
	}
	st := &compileStats{}
	cm := p.compile(m, opts, inRegion, false, st)
	return disassemble(cm.code)
}

func TestGoldenStaticInside(t *testing.T) {
	got := compileCanon(t, CompileOptions{Mode: BarrierStatic}, true)
	want := strings.TrimLeft(`
     0  load         0
     1  barrier.r    0
     2  getfield     0
     3  pop
     4  load         0
     5  const        7
     6  barrier.w    1
     7  putfield     1
     8  new          2
     9  barrier.alloc
    10  store        1
    11  return
`, "\n")
	if got != want {
		t.Errorf("static-inside compiled form changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGoldenStaticOutside(t *testing.T) {
	got := compileCanon(t, CompileOptions{Mode: BarrierStatic}, false)
	want := strings.TrimLeft(`
     0  load         0
     1  barrier.or   0
     2  getfield     0
     3  pop
     4  load         0
     5  const        7
     6  barrier.ow   1
     7  putfield     1
     8  new          2
     9  store        1
    10  return
`, "\n")
	if got != want {
		t.Errorf("static-outside compiled form changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGoldenDynamic(t *testing.T) {
	got := compileCanon(t, CompileOptions{Mode: BarrierDynamic}, false)
	want := strings.TrimLeft(`
     0  load         0
     1  inregion
     2  barrier.selr 0
     3  getfield     0
     4  pop
     5  load         0
     6  const        7
     7  inregion
     8  barrier.selw 1
     9  putfield     1
    10  new          2
    11  inregion
    12  jmpifnot     -> 14
    13  barrier.alloc
L:  14  store        1
    15  return
`, "\n")
	if got != want {
		t.Errorf("dynamic compiled form changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGoldenNoneIsSource(t *testing.T) {
	got := compileCanon(t, CompileOptions{Mode: BarrierNone}, false)
	if strings.Contains(got, "barrier") || strings.Contains(got, "inregion") {
		t.Errorf("barrier-free build contains instrumentation:\n%s", got)
	}
}

func TestGoldenOptimizedElidesSecondRead(t *testing.T) {
	src := `
method canon2 args=1 locals=1
    load 0
    getfield 0
    pop
    load 0
    getfield 1
    pop
    return
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	m, _ := p.Lookup("canon2")
	st := &compileStats{}
	cm := p.compile(m, CompileOptions{Mode: BarrierStatic, Optimize: true}, true, false, st)
	got := disassemble(cm.code)
	if strings.Count(got, "barrier.r") != 1 {
		t.Errorf("want exactly one read barrier after optimization:\n%s", got)
	}
}
