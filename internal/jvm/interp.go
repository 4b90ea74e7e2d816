package jvm

import (
	"fmt"

	"laminar/internal/rt"
)

// Machine executes a compiled Program. It owns the statics table and the
// per-run security configuration; the host's rt.Thread carries the
// principal and its region stack.
type Machine struct {
	prog    *Program
	opts    CompileOptions
	statics []Value
	cstats  compileStats
	stats   RunStats

	// MaxInstructions bounds one Call's execution (0 = unlimited); an
	// exhausted budget surfaces as a fatal TrapError. Useful for running
	// untrusted or generated bytecode.
	MaxInstructions uint64
	budget          uint64

	// Trace, when non-nil, records configuration-invariant security
	// events (region entries and exits, denials, catch transfers) for
	// differential oracles: two runs of one program under different
	// barrier/optimization configurations must produce identical traces.
	// Barrier checks themselves are NOT traced — their count is exactly
	// what optimization changes; what must not change is which denials
	// fire and in what order.
	Trace *TraceLog

	// TracePubs additionally records every executed static store as a
	// "pub <slot> <value>" event. Static stores execute iff their write
	// barrier allowed them, and denials are configuration-invariant, so
	// pub events are too. References render opaquely (their labels vary
	// with barrier configuration; their identity is not observable to
	// guest code). Used by the taint-lint leak oracle, which compares
	// publication streams across runs with perturbed inputs.
	TracePubs bool
}

// TraceLog accumulates security events.
type TraceLog struct{ Events []string }

func (mc *Machine) trace(format string, args ...any) {
	if mc.Trace != nil {
		mc.Trace.Events = append(mc.Trace.Events, fmt.Sprintf(format, args...))
	}
}

// traceMethod records "<event> <method name>". Its string parameters box
// nothing, so a secure call with tracing off allocates no event.
func (mc *Machine) traceMethod(event, name string) {
	if mc.Trace != nil {
		mc.Trace.Events = append(mc.Trace.Events, event+" "+name)
	}
}

// RunStats counts dynamic security work during execution.
type RunStats struct {
	Instructions   uint64
	BarrierChecks  uint64
	ContextChecks  uint64
	RegionsEntered uint64
	Violations     uint64
}

// NewMachine prepares a machine: the program is verified and methods will
// be JIT-compiled on first invocation under opts. Interproc requires the
// program's whole-program analysis to be attached already.
func NewMachine(prog *Program, opts CompileOptions) (*Machine, error) {
	if err := prog.Verify(); err != nil {
		return nil, err
	}
	if err := prog.interprocCheck(opts); err != nil {
		return nil, err
	}
	return &Machine{prog: prog, opts: opts, statics: make([]Value, prog.NStatics)}, nil
}

// Stats returns the run counters.
func (mc *Machine) Stats() RunStats { return mc.stats }

// CompileReport returns the compiler work done so far (lazy compilation
// accumulates here).
func (mc *Machine) CompileReport() CompileReport {
	return CompileReport{
		Methods:         mc.cstats.methodsCompiled,
		InstrsIn:        mc.cstats.instrsIn,
		InstrsOut:       mc.cstats.instrsOut,
		BarriersEmitted: mc.cstats.barriersEmitted,
		BarriersElided:  mc.cstats.barriersElided,
		InlinedCalls:    mc.cstats.inlinedCalls,
	}
}

// Static reads a statics slot (host access for tests).
func (mc *Machine) Static(i int) Value { return mc.statics[i] }

// trap is the interpreter's violation panic payload. fatal traps (machine
// errors such as an argument-count mismatch or an exhausted instruction
// budget) are not absorbed by security-region catch blocks.
type trap struct {
	err   error
	fatal bool
}

// TrapError is the error produced when bytecode violates the DIFC rules
// outside any region (no catch block to absorb it) or breaks machine
// invariants.
type TrapError struct{ Err error }

// Error formats the trap.
func (e *TrapError) Error() string { return fmt.Sprintf("jvm: trap: %v", e.Err) }

// Unwrap exposes the cause.
func (e *TrapError) Unwrap() error { return e.Err }

// Call invokes the named method on the host's thread t and returns the
// method's result (zero Value for void). t is an rt thread: its kernel
// task holds the capabilities that outermost security regions are judged
// against, and rt keeps its region stack (HostThread builds such a thread
// for a program).
func (mc *Machine) Call(t *rt.Thread, name string, args ...Value) (v Value, err error) {
	m, err := mc.prog.Lookup(name)
	if err != nil {
		return Value{}, err
	}
	defer func() {
		if e := recover(); e != nil {
			if tr, ok := e.(trap); ok {
				err = &TrapError{Err: tr.err}
				return
			}
			panic(e)
		}
	}()
	if mc.MaxInstructions > 0 {
		mc.budget = mc.stats.Instructions + mc.MaxInstructions
	}
	return mc.invoke(t, m, args, true), nil
}

// invoke runs one method activation. A secure method runs as an rt
// security region (rt.Thread.Secure): rt judges the entry, keeps the
// region frame, and restores the parent context on exit. A violation
// raised in the body transfers to the compiled catch code with the region
// still active (§4.3.3), and all exceptions are suppressed at the region
// boundary. A fatal trap, or any panic that is not a trap, is not the
// program's to catch: the catch closure stashes it and invoke raises it
// again once the region has exited. host marks entries through
// Machine.Call, whose arguments never passed a barrier (the
// interprocedural optimizer compiles a conservative variant for them).
func (mc *Machine) invoke(t *rt.Thread, m *Method, args []Value, host bool) Value {
	if len(args) != m.NArgs {
		panic(trap{err: fmt.Errorf("method %s wants %d args, got %d", m.Name, m.NArgs, len(args)), fatal: true})
	}
	cm := mc.prog.variantFor(m, mc.opts, t.Region() != nil, host, &mc.cstats)
	if m.Secure == nil || mc.opts.Mode == BarrierNone {
		return mc.exec(t, cm, cm.code, args)
	}
	var ret Value
	var fatal any
	err := t.Secure(m.Secure.Labels, m.Secure.Caps, func(*rt.Region) {
		mc.stats.RegionsEntered++
		mc.traceMethod("enter", m.Name)
		ret = mc.exec(t, cm, cm.code, args)
	}, func(_ *rt.Region, e any) {
		if tr, ok := e.(trap); !ok || tr.fatal {
			fatal = e
			return
		}
		mc.stats.Violations++
		mc.traceMethod("catch", m.Name)
		if cm.catch != nil {
			mc.exec(t, cm, cm.catch, args)
		}
	})
	if err != nil {
		mc.traceMethod("deny-enter", m.Name)
		panic(trap{err: err})
	}
	mc.traceMethod("exit", m.Name)
	if fatal != nil {
		panic(fatal)
	}
	return ret
}

// exec is the interpreter loop.
func (mc *Machine) exec(t *rt.Thread, cm *compiledMethod, code []Instr, args []Value) Value {
	m := cm.method
	locals := make([]Value, cm.nLocal)
	copy(locals, args)
	stack := make([]Value, 0, cm.maxStack)
	pc := 0

	push := func(v Value) { stack = append(stack, v) }
	pop := func() Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	peek := func(depth int32) Value { return stack[len(stack)-1-int(depth)] }

	for {
		in := code[pc]
		mc.stats.Instructions++
		if mc.budget > 0 && mc.stats.Instructions > mc.budget {
			panic(trap{err: fmt.Errorf("instruction budget exhausted in %s@%d", m.Name, pc), fatal: true})
		}
		switch in.Op {
		case OpNop:
		case OpConst:
			push(IntV(int64(in.A)))
		case OpLoad:
			push(locals[in.A])
		case OpStore:
			locals[in.A] = pop()
		case OpPop:
			pop()
		case OpDup:
			push(stack[len(stack)-1])
		case OpAdd:
			b, a := pop(), pop()
			push(IntV(a.i + b.i))
		case OpSub:
			b, a := pop(), pop()
			push(IntV(a.i - b.i))
		case OpMul:
			b, a := pop(), pop()
			push(IntV(a.i * b.i))
		case OpDiv:
			b, a := pop(), pop()
			if b.i == 0 {
				panic(trap{err: fmt.Errorf("division by zero in %s@%d", m.Name, pc)})
			}
			push(IntV(a.i / b.i))
		case OpMod:
			b, a := pop(), pop()
			if b.i == 0 {
				panic(trap{err: fmt.Errorf("division by zero in %s@%d", m.Name, pc)})
			}
			push(IntV(a.i % b.i))
		case OpNeg:
			a := pop()
			push(IntV(-a.i))
		case OpCmpEQ:
			b, a := pop(), pop()
			push(boolV(a.i == b.i && a.ref == b.ref))
		case OpCmpNE:
			b, a := pop(), pop()
			push(boolV(a.i != b.i || a.ref != b.ref))
		case OpCmpLT:
			b, a := pop(), pop()
			push(boolV(a.i < b.i))
		case OpCmpLE:
			b, a := pop(), pop()
			push(boolV(a.i <= b.i))
		case OpCmpGT:
			b, a := pop(), pop()
			push(boolV(a.i > b.i))
		case OpCmpGE:
			b, a := pop(), pop()
			push(boolV(a.i >= b.i))
		case OpJmp:
			pc = int(in.A)
			continue
		case OpJmpIf:
			if pop().i != 0 {
				pc = int(in.A)
				continue
			}
		case OpJmpIfNot:
			if pop().i == 0 {
				pc = int(in.A)
				continue
			}
		case OpNew:
			push(refV(&Obj{fields: make([]Value, in.A)}))
		case OpNewArray:
			n := pop().i
			if n < 0 {
				panic(trap{err: fmt.Errorf("negative array length in %s@%d", m.Name, pc)})
			}
			push(refV(&Obj{elems: make([]Value, n)}))
		case OpGetField:
			o := mustRef(pop(), m, pc)
			if int(in.A) >= len(o.fields) {
				panic(trap{err: fmt.Errorf("no field %d on %d-field object in %s@%d", in.A, len(o.fields), m.Name, pc)})
			}
			push(o.fields[in.A])
		case OpPutField:
			v := pop()
			o := mustRef(pop(), m, pc)
			if int(in.A) >= len(o.fields) {
				panic(trap{err: fmt.Errorf("no field %d on %d-field object in %s@%d", in.A, len(o.fields), m.Name, pc)})
			}
			o.fields[in.A] = v
		case OpALoad:
			i := pop().i
			o := mustRef(pop(), m, pc)
			if i < 0 || i >= int64(len(o.elems)) {
				panic(trap{err: fmt.Errorf("array index %d out of range [0,%d) in %s@%d", i, len(o.elems), m.Name, pc)})
			}
			push(o.elems[i])
		case OpAStore:
			v := pop()
			i := pop().i
			o := mustRef(pop(), m, pc)
			if i < 0 || i >= int64(len(o.elems)) {
				panic(trap{err: fmt.Errorf("array index %d out of range [0,%d) in %s@%d", i, len(o.elems), m.Name, pc)})
			}
			o.elems[i] = v
		case OpArrayLen:
			o := mustRef(pop(), m, pc)
			push(IntV(int64(len(o.elems))))
		case OpGetStatic:
			push(mc.statics[in.A])
		case OpPutStatic:
			v := pop()
			mc.statics[in.A] = v
			if mc.TracePubs {
				if v.ref != nil {
					mc.trace("pub %d ref", in.A)
				} else {
					mc.trace("pub %d i%d", in.A, v.i)
				}
			}
		case OpInvoke:
			callee := mc.prog.Methods[in.A]
			cargs := make([]Value, callee.NArgs)
			for i := callee.NArgs - 1; i >= 0; i-- {
				cargs[i] = pop()
			}
			ret := mc.invoke(t, callee, cargs, false)
			if callee.returnsValue() {
				push(ret)
			}
		case OpReturn:
			return Value{}
		case OpReturnVal:
			return pop()

		// --- compiler-inserted barriers: each applies one of rt's rules ---
		case OpBarrierRead:
			mc.stats.BarrierChecks++
			o := mustRef(peek(in.A), m, pc)
			mc.check(t.CheckRead(&o.labels))
		case OpBarrierWrite:
			mc.stats.BarrierChecks++
			o := mustRef(peek(in.A), m, pc)
			mc.check(t.CheckWrite(&o.labels))
		case OpBarrierOutR, OpBarrierOutW:
			mc.stats.BarrierChecks++
			o := mustRef(peek(in.A), m, pc)
			mc.check(rt.CheckOutside(&o.labels, o.labeled))
		case OpBarrierSelR:
			mc.stats.BarrierChecks++
			inReg := pop().i != 0
			o := mustRef(peek(in.A), m, pc)
			if inReg {
				mc.check(t.CheckRead(&o.labels))
			} else {
				mc.check(rt.CheckOutside(&o.labels, o.labeled))
			}
		case OpBarrierSelW:
			mc.stats.BarrierChecks++
			inReg := pop().i != 0
			o := mustRef(peek(in.A), m, pc)
			if inReg {
				mc.check(t.CheckWrite(&o.labels))
			} else {
				mc.check(rt.CheckOutside(&o.labels, o.labeled))
			}
		case OpBarrierAlloc:
			mc.stats.BarrierChecks++
			o := mustRef(peek(0), m, pc)
			o.labels = t.Labels()
			o.labeled = !o.labels.IsEmpty()
		case OpBarrierStaticR:
			mc.stats.BarrierChecks++
			mc.check(t.CheckStaticRead())
		case OpBarrierStaticW:
			mc.stats.BarrierChecks++
			mc.check(t.CheckStaticWrite())
		case OpInRegion:
			mc.stats.ContextChecks++
			push(boolV(t.Region() != nil))
		default:
			panic(trap{err: fmt.Errorf("bad opcode %v in %s@%d", in.Op, m.Name, pc)})
		}
		pc++
	}
}

// check reports a barrier's denial, if any, as a DIFC violation: inside a
// region it unwinds to the enclosing secure method's catch; outside, it
// surfaces as a TrapError.
func (mc *Machine) check(err error) {
	if err != nil {
		mc.raise(err)
	}
}

func (mc *Machine) raise(err error) {
	mc.trace("violation %v", err)
	panic(trap{err: err})
}

func mustRef(v Value, m *Method, pc int) *Obj {
	if v.ref == nil {
		panic(trap{err: fmt.Errorf("null/non-reference dereference in %s@%d", m.Name, pc)})
	}
	return v.ref
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}
