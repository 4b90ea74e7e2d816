package jvm

// The checked-facts problem behind §5.1's redundant-barrier elimination:
// "A read (or write) barrier is redundant if the object has been read
// (written), or if the object was allocated, along every incoming path."
// It is a forward must-problem solved by Solve over BuildCFG's graph.
// Its state tracks, per local slot, which checks the object the slot
// holds has passed, what that object is (a parameter, a fresh
// allocation, or unknown), which checks each original argument object
// has passed, and whether a checked static read or write already ran.
// Callee facts come from the one summary table ([]Summary). This one
// transfer function serves the compiler's elimination (opt.go), the
// summary computation and the region lint in internal/jvm/analysis.
//
// Facts mean "a check of this kind on this object in the current
// context is guaranteed to succeed". Soundness rests on two Laminar
// invariants: object labels are immutable (§4.5) and a security
// region's labels cannot change during its execution (§4.4), so a check
// that succeeded once holds for the rest of the activation. A fresh
// object carries the context's own labels, so allocation implies both
// checks, and eliminating a dominated barrier does not invalidate the
// fact that made it redundant. Calls do not invalidate facts: a nested
// region entered by a callee is popped again before control returns.

// Fact bits tracked per object: a bit is set when the object has passed
// the corresponding check or was freshly allocated.
const (
	FactRead  uint8 = 1 << iota // object has passed a read check
	FactWrite                   // object has passed a write check
)

// FactAll is the top of the fact lattice.
const FactAll = FactRead | FactWrite

// Slot origins; values >= 0 name the parameter whose object the slot
// holds.
const (
	originTop     = -2 // optimistic: not yet constrained by any path
	originUnknown = -1
	originFresh   = -3 // object allocated in this activation
)

// FactState is the checked-facts lattice element at one program point.
type FactState struct {
	slots []uint8 // fact bits of the object each local slot holds
	orig  []int16 // what each slot holds: parameter index, fresh or unknown
	// Args holds the facts established for each original argument
	// object, whatever slot now holds it.
	Args []uint8
	// Stat holds FactRead/FactWrite when a checked static read/write
	// already ran.
	Stat uint8
}

// Clone copies the state.
func (s *FactState) Clone() State {
	return &FactState{
		slots: append([]uint8(nil), s.slots...),
		orig:  append([]int16(nil), s.orig...),
		Args:  append([]uint8(nil), s.Args...),
		Stat:  s.Stat,
	}
}

// Merge intersects other's facts into s and reports whether s changed.
// Origins merge as: top absorbs, equal survives, conflict decays to
// unknown.
func (s *FactState) Merge(other State) bool {
	o := other.(*FactState)
	changed := false
	and := func(dst *uint8, src uint8) {
		if nb := *dst & src; nb != *dst {
			*dst = nb
			changed = true
		}
	}
	for i := range s.slots {
		and(&s.slots[i], o.slots[i])
		switch {
		case s.orig[i] == o.orig[i] || o.orig[i] == originTop:
		case s.orig[i] == originTop:
			s.orig[i] = o.orig[i]
			changed = true
		case s.orig[i] != originUnknown:
			s.orig[i] = originUnknown
			changed = true
		}
	}
	for i := range s.Args {
		and(&s.Args[i], o.Args[i])
	}
	and(&s.Stat, o.Stat)
	return changed
}

// checkedProblem is the checked-facts problem over one code array.
type checkedProblem struct {
	p *Program
	g *CFG
	// nLocal and nArgs size the slot and argument facts; slots past
	// nLocal are never tracked.
	nLocal, nArgs int
	// entry seeds the leading slots' facts at the boundary; nil means
	// none (host entry, catch blocks, summaries).
	entry []uint8
	// sums supplies callee facts. Without it an invoke transfers
	// nothing and a call's result carries no facts.
	sums []Summary
	// throughCalls lets the stack tracer walk through invokes.
	throughCalls bool
}

func (pr *checkedProblem) Direction() Direction { return Forward }

func (pr *checkedProblem) state() *FactState {
	return &FactState{slots: make([]uint8, pr.nLocal), orig: make([]int16, pr.nLocal), Args: make([]uint8, pr.nArgs)}
}

func (pr *checkedProblem) Boundary() State {
	s := pr.state()
	for i := range s.orig {
		s.orig[i] = originUnknown
		if i < pr.nArgs {
			s.orig[i] = int16(i)
		}
	}
	copy(s.slots, pr.entry)
	return s
}

func (pr *checkedProblem) Top() State {
	s := pr.state()
	for i := range s.slots {
		s.slots[i], s.orig[i] = FactAll, originTop
	}
	for i := range s.Args {
		s.Args[i] = FactAll
	}
	s.Stat = FactAll
	return s
}

func (pr *checkedProblem) Transfer(b int, st State) {
	s := st.(*FactState)
	for pc := pr.g.Blocks[b].Start; pc < pr.g.Blocks[b].End; pc++ {
		pr.step(s, pc)
	}
}

// callee returns the summary of method mi, or nil when no facts may be
// assumed.
func (pr *checkedProblem) callee(mi int) *Summary {
	if mi < 0 || mi >= len(pr.sums) {
		return nil
	}
	return &pr.sums[mi]
}

// src traces the stack value at depth just before pc to its producer.
func (pr *checkedProblem) src(pc, depth int) int {
	return pr.p.StackSource(pr.g, pc, depth, pr.throughCalls)
}

// check credits the object loaded by the instruction at src, if any,
// with bits: the slot it came from and the argument it is.
func (pr *checkedProblem) check(s *FactState, src int, bits uint8) {
	if src < 0 || pr.g.Code[src].Op != OpLoad {
		return
	}
	if slot := int(pr.g.Code[src].A); slot < len(s.slots) {
		s.slots[slot] |= bits
		if o := s.orig[slot]; o >= 0 && int(o) < len(s.Args) {
			s.Args[o] |= bits
		}
	}
}

// step is the per-instruction transfer function.
func (pr *checkedProblem) step(s *FactState, pc int) {
	in := pr.g.Code[pc]
	switch {
	case accessDepth(in.Op) >= 0:
		pr.check(s, pr.src(pc, accessDepth(in.Op)), accessBit(in.Op))
	case in.Op == OpGetStatic:
		s.Stat |= FactRead
	case in.Op == OpPutStatic:
		s.Stat |= FactWrite
	case in.Op == OpInvoke:
		sum := pr.callee(int(in.A))
		if sum == nil {
			return
		}
		// The callee ran these checks in this activation's context on
		// every path to a normal return (secure callees publish empty
		// summaries).
		s.Stat |= sum.Statics
		nArgs := pr.p.Methods[in.A].NArgs
		for k := 0; k < nArgs && k < len(sum.Ensures); k++ {
			if sum.Ensures[k] != 0 {
				// Argument k sits at depth nArgs-1-k (last argument on
				// top) just before the invoke executes.
				pr.check(s, pr.src(pc, nArgs-1-k), sum.Ensures[k])
			}
		}
	case in.Op == OpStore:
		d := int(in.A)
		if d >= len(s.slots) {
			return
		}
		v := pr.operand(s, pc, 0)
		s.slots[d], s.orig[d] = v.Bits, v.orig
	}
}

// Operand describes the stack value at some depth just before a pc.
type Operand struct {
	// Src is the pc of the instruction that produced the value, or -1.
	Src int
	// Bits are the value's facts: FactAll for a fresh allocation, the
	// slot's facts for a local load, the callee's Return facts for a
	// call's result, and none otherwise.
	Bits uint8
	// Fresh marks an object allocated in this activation.
	Fresh bool
	// Param is the parameter whose object this is, or -1.
	Param int
	orig  int16
}

// operand classifies the stack value at depth just before pc under s.
func (pr *checkedProblem) operand(s *FactState, pc, depth int) Operand {
	v := Operand{Src: pr.src(pc, depth), Param: -1, orig: originUnknown}
	if v.Src < 0 {
		return v
	}
	in := pr.g.Code[v.Src]
	switch in.Op {
	case OpNew, OpNewArray:
		v.Bits, v.Fresh, v.orig = FactAll, true, originFresh
	case OpLoad:
		if slot := int(in.A); slot < len(s.slots) {
			v.Bits, v.orig = s.slots[slot], s.orig[slot]
			v.Fresh = v.orig == originFresh
			if v.orig >= 0 {
				v.Param = int(v.orig)
			}
		}
	case OpInvoke:
		if sum := pr.callee(int(in.A)); sum != nil {
			v.Bits = sum.Return
		}
	}
	return v
}

// Facts is the solved checked-facts problem over one code array.
type Facts struct {
	pr *checkedProblem
	in []State
}

func (pr *checkedProblem) solve() *Facts {
	return &Facts{pr: pr, in: Solve(pr.g, pr)}
}

// CheckedFacts solves the checked-facts problem over code, m's body or
// catch block, with no entry facts, slots sized by m.NLocal, callee
// facts from sums (nil: none) and stack values traced through calls.
func (p *Program) CheckedFacts(m *Method, code []Instr, sums []Summary) *Facts {
	pr := &checkedProblem{p: p, g: BuildCFG(code), nLocal: m.NLocal, nArgs: m.NArgs, sums: sums, throughCalls: true}
	return pr.solve()
}

// Walk calls visit with the state just before each instruction, in pc
// order. visit must not keep s.
func (f *Facts) Walk(visit func(pc int, s *FactState)) {
	for bi, b := range f.pr.g.Blocks {
		s := f.in[bi].Clone().(*FactState)
		for pc := b.Start; pc < b.End; pc++ {
			visit(pc, s)
			f.pr.step(s, pc)
		}
	}
}

// Operand classifies the stack value at depth just before pc, given the
// state s Walk passed for pc.
func (f *Facts) Operand(s *FactState, pc, depth int) Operand {
	return f.pr.operand(s, pc, depth)
}

// redundant reports why the barrier site at pc is redundant under s, or
// "" when its barrier must stay: the site's operand already carries the
// site's check.
func (f *Facts) redundant(s *FactState, pc int) string {
	op := f.pr.g.Code[pc].Op
	switch {
	case op == OpGetStatic && s.Stat&FactRead != 0:
		return "a checked static read already ran on every incoming path"
	case op == OpPutStatic && s.Stat&FactWrite != 0:
		return "a checked static write already ran on every incoming path"
	case accessDepth(op) < 0:
		return ""
	}
	v := f.Operand(s, pc, accessDepth(op))
	if v.Bits&accessBit(op) == 0 {
		return ""
	}
	switch f.pr.g.Code[v.Src].Op {
	case OpNew, OpNewArray:
		return "object freshly allocated in this method; a fresh object carries the context's own labels"
	case OpLoad:
		return "object in local slot passed the same check on every incoming path"
	default:
		return "callee's Return summary proves its result checked or freshly allocated"
	}
}

// accessBit is the fact a heap access checks.
func accessBit(op Op) uint8 {
	if isWrite(op) {
		return FactWrite
	}
	return FactRead
}
