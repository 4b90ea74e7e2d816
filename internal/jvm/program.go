package jvm

import (
	"fmt"
	"strconv"

	"laminar/internal/difc"
)

// Value is a MiniJVM stack slot: an integer or an object reference. The
// zero value is the integer 0.
type Value struct {
	ref *Obj
	i   int64
}

// IntV boxes an integer.
func IntV(i int64) Value { return Value{i: i} }

// refV boxes an object reference.
func refV(o *Obj) Value { return Value{ref: o} }

// Int returns the integer payload (0 for references).
func (v Value) Int() int64 { return v.i }

// String renders an integer as its decimal value and a reference as the
// state of its object: whether it lives in the labeled object space, its
// labels and its array length.
func (v Value) String() string {
	if o := v.ref; o != nil {
		return fmt.Sprintf("ref(labeled=%v,labels=%v,len=%d)", o.labeled, o.labels, len(o.elems))
	}
	return strconv.FormatInt(v.i, 10)
}

// Obj is a MiniJVM heap object: field slots or an array part, plus the
// immutable label words the Laminar allocator adds to the header (§5.1:
// "two words to each object's header, which point to secrecy and
// integrity labels").
type Obj struct {
	fields  []Value
	elems   []Value
	labels  difc.Labels
	labeled bool
}

// SecureInfo marks a method as a security region and carries its
// credentials. The prototype restriction of §5.1 applies: a security
// region is its own method.
type SecureInfo struct {
	// Labels and Caps are the region's credentials, fixed when the
	// program is assembled (workload setup allocates tags first).
	Labels difc.Labels
	Caps   difc.CapSet
	// Catch is the catch block's code. It runs with the region's labels
	// when the body raises; it must end in OpReturn. Nil means an empty
	// catch block.
	Catch []Instr
}

// Method is a MiniJVM method.
type Method struct {
	Name   string
	NArgs  int
	NLocal int // total local slots, including args
	Code   []Instr
	Secure *SecureInfo

	// compiled variants, filled by the compiler.
	variants     [2]*compiledMethod // [outside, inside]
	hostVariants [2]*compiledMethod // interproc: conservative host-entry variants
	index        int
	maxStack     int // computed by Verify
}

// Program is a compiled unit: a method table plus a statics table size.
type Program struct {
	Methods  []*Method
	NStatics int

	byName   map[string]*Method
	verified bool
	// verifiedFP fingerprints the method table at Verify time. Verify is
	// memoized; mutating a verified program's methods in place breaks the
	// memoization contract and is detected by re-fingerprinting (the
	// fingerprint is a single linear scan, far cheaper than abstract
	// interpretation).
	verifiedFP uint64
	// interproc is the attached summary table (SetInterproc), nil when
	// none is attached.
	interproc []Summary
}

// NewProgram creates an empty program with n static slots.
func NewProgram(nStatics int) *Program {
	return &Program{NStatics: nStatics, byName: make(map[string]*Method)}
}

// Add registers a method and returns it.
func (p *Program) Add(m *Method) *Method {
	m.index = len(p.Methods)
	p.Methods = append(p.Methods, m)
	p.byName[m.Name] = m
	p.verified = false
	return m
}

// fingerprint hashes the structural content of the program's methods
// (FNV-1a over names, arities, code and catch code). It detects in-place
// mutation of a verified program; see Verify.
func (p *Program) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mixCode := func(code []Instr) {
		mix(uint64(len(code)))
		for _, in := range code {
			mix(uint64(in.Op))
			mix(uint64(uint32(in.A)))
		}
	}
	mix(uint64(p.NStatics))
	mix(uint64(len(p.Methods)))
	for _, m := range p.Methods {
		for _, c := range m.Name {
			mix(uint64(c))
		}
		mix(uint64(m.NArgs))
		mix(uint64(m.NLocal))
		mixCode(m.Code)
		if m.Secure != nil {
			mix(1)
			mixCode(m.Secure.Catch)
		} else {
			mix(0)
		}
	}
	return h
}

// Lookup finds a method by name.
func (p *Program) Lookup(name string) (*Method, error) {
	m, ok := p.byName[name]
	if !ok {
		return nil, fmt.Errorf("jvm: no method %q", name)
	}
	return m, nil
}

// --- assembler ---

// Asm builds a method's code with symbolic labels, so workloads and tests
// don't hand-compute branch targets.
type Asm struct {
	code   []Instr
	labels map[string]int32
	refs   []labelRef
	err    error
}

type labelRef struct {
	pc    int
	label string
}

// NewAsm creates an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int32)}
}

// Emit appends a raw instruction.
func (a *Asm) Emit(op Op, operand int32) *Asm {
	if op.isBarrier() {
		a.err = fmt.Errorf("jvm: asm: barrier opcode %v in source", op)
	}
	a.code = append(a.code, Instr{Op: op, A: operand})
	return a
}

// Op appends an operand-less instruction.
func (a *Asm) Op(op Op) *Asm { return a.Emit(op, 0) }

// Const pushes an integer.
func (a *Asm) Const(v int64) *Asm { return a.Emit(OpConst, int32(v)) }

// Load pushes a local.
func (a *Asm) Load(slot int) *Asm { return a.Emit(OpLoad, int32(slot)) }

// Store pops into a local.
func (a *Asm) Store(slot int) *Asm { return a.Emit(OpStore, int32(slot)) }

// New allocates an object with n field slots.
func (a *Asm) New(nFields int) *Asm { return a.Emit(OpNew, int32(nFields)) }

// GetField reads field slot f of the popped object.
func (a *Asm) GetField(f int) *Asm { return a.Emit(OpGetField, int32(f)) }

// PutField writes field slot f.
func (a *Asm) PutField(f int) *Asm { return a.Emit(OpPutField, int32(f)) }

// Invoke calls method m.
func (a *Asm) Invoke(m *Method) *Asm { return a.Emit(OpInvoke, int32(m.index)) }

// Label defines a branch target at the current position.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.err = fmt.Errorf("jvm: asm: duplicate label %q", name)
	}
	a.labels[name] = int32(len(a.code))
	return a
}

// Jmp and JmpIf branch to a label.
func (a *Asm) Jmp(label string) *Asm   { return a.jump(OpJmp, label) }
func (a *Asm) JmpIf(label string) *Asm { return a.jump(OpJmpIf, label) }

func (a *Asm) jump(op Op, label string) *Asm {
	a.refs = append(a.refs, labelRef{pc: len(a.code), label: label})
	a.code = append(a.code, Instr{Op: op})
	return a
}

// Build resolves labels and returns the code.
func (a *Asm) Build() ([]Instr, error) {
	if a.err != nil {
		return nil, a.err
	}
	for _, r := range a.refs {
		target, ok := a.labels[r.label]
		if !ok {
			return nil, fmt.Errorf("jvm: asm: undefined label %q", r.label)
		}
		a.code[r.pc].A = target
	}
	return a.code, nil
}

// MustBuild is Build for tests and workload constructors that control
// their own source.
func (a *Asm) MustBuild() []Instr {
	code, err := a.Build()
	if err != nil {
		panic(err)
	}
	return code
}
