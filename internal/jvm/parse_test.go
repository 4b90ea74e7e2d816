package jvm

import (
	"math/rand"
	"strings"
	"testing"
)

const countdownSrc = `
; countdown from 5, returns 0
statics 1

method main args=0 locals=1
    const 5
    store 0
loop:
    load 0
    const 0
    cmple
    jmpif done
    load 0
    const 1
    sub
    store 0
    jmp loop
done:
    load 0
    returnval
end
`

func TestParseAndRun(t *testing.T) {
	p, err := Parse(countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.NStatics != 1 {
		t.Errorf("statics = %d", p.NStatics)
	}
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 0 {
		t.Fatalf("main = %v, %v", v, err)
	}
}

func TestParseForwardInvoke(t *testing.T) {
	src := `
method main args=0 locals=0
    const 6
    invoke double
    returnval
end

method double args=1 locals=1
    load 0
    const 2
    mul
    returnval
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
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 12 {
		t.Fatalf("main = %v, %v", v, err)
	}
}

func TestParseSecureMethodWithCatch(t *testing.T) {
	src := `
statics 1

secure method probe args=1 locals=1 integrity=7 plus=7
    load 0
    getfield 0
    pop
    return
catch:
    const 99
    putstatic 0
    return
end

method main args=0 locals=1
    new 1
    store 0
    load 0
    invoke probe
    getstatic 0
    returnval
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Lookup("probe")
	if err != nil {
		t.Fatal(err)
	}
	if m.Secure == nil || m.Secure.Labels.I.Len() != 1 {
		t.Fatalf("secure info = %+v", m.Secure)
	}
	mc, err := NewMachine(p, CompileOptions{Mode: BarrierStatic})
	if err != nil {
		t.Fatal(err)
	}
	// Reading an unlabeled object from an integrity region violates; the
	// catch writes 99 into the static.
	v, err := mc.Call(hostThread(t, mc), "main")
	if err != nil || v.Int() != 99 {
		t.Fatalf("main = %v, %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", "method m args=0 locals=0\n bogus\nend", "unknown mnemonic"},
		{"instr outside", "const 1", "outside a method"},
		{"label outside", "foo:", "outside a method"},
		{"nested method", "method a args=0 locals=0\nmethod b args=0 locals=0", "method inside method"},
		{"missing end", "method a args=0 locals=0\n return", "missing end"},
		{"bad statics", "statics x", "bad statics"},
		{"bad attr", "method m argz\nend", "bad attribute"},
		{"unknown attr", "method m wat=1\nend", "unknown attribute"},
		{"secure attr on plain", "method m secrecy=1\nend", "non-secure"},
		{"catch on plain", "method m args=0 locals=0\ncatch:\n return\nend", "outside a secure"},
		{"undefined invoke", "method m args=0 locals=0\n invoke nope\n return\nend", "undefined method"},
		{"jump without label", "method m args=0 locals=0\n jmp\nend", "wants a label"},
		{"operand missing", "method m args=0 locals=0\n const\nend", "wants an operand"},
		{"stray operand", "method m args=0 locals=0\n add 3\nend", "takes no operand"},
		{"end outside", "end", "outside a method"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestParseDisassembleRoundTrip(t *testing.T) {
	p, err := Parse(countdownSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Lookup("main")
	if err != nil {
		t.Fatal(err)
	}
	out := disassemble(m.Code)
	// Every mnemonic used in the source appears in the disassembly.
	for _, want := range []string{"const", "store", "load", "cmple", "jmpif", "sub", "jmp", "returnval"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestParseFuzzNeverPanics(t *testing.T) {
	// Random byte soup and random token recombinations must produce an
	// error or a program — never a panic.
	rng := newDeterministicRand()
	tokens := []string{
		"method", "secure", "end", "catch:", "statics", "args=0", "locals=2",
		"const", "load", "store", "jmp", "jmpif", "invoke", "return",
		"returnval", "loop:", "loop", "1", "-3", "x", "secrecy=1", "add",
		"getfield", "putfield", "new", ";", "\n",
	}
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			b.WriteString(tokens[rng.Intn(len(tokens))])
			if rng.Intn(3) == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Fatalf("trial %d: parser panicked on %q: %v", trial, b.String(), e)
				}
			}()
			p, err := Parse(b.String())
			if err == nil && p != nil {
				// Any accepted program must also verify or fail cleanly.
				_ = p.Verify()
			}
		}()
	}
}

func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
