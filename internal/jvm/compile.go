package jvm

import "fmt"

// BarrierMode selects the compiler's barrier strategy (§5.1, §6.1).
type BarrierMode int

// Barrier modes.
const (
	// BarrierNone is the unmodified-VM baseline: no barriers, no labels.
	BarrierNone BarrierMode = iota
	// BarrierStatic compiles barriers whose in/out-of-region context is
	// known at compile time, cloning methods reachable from both contexts
	// (the production design; also the cost of the paper's prototype when
	// every method is reached from one context).
	BarrierStatic
	// BarrierDynamic emits barriers that test the thread's context at run
	// time, for methods called both inside and outside regions without
	// cloning. ~3× the static barrier cost in the paper.
	BarrierDynamic
)

// String names the mode.
func (m BarrierMode) String() string {
	switch m {
	case BarrierNone:
		return "none"
	case BarrierStatic:
		return "static"
	case BarrierDynamic:
		return "dynamic"
	default:
		return "?"
	}
}

// CompileOptions configures the baseline compiler. The pipeline is
// fixed: inlining, then peephole folding, then redundant-barrier
// elimination, then barrier insertion.
type CompileOptions struct {
	Mode BarrierMode
	// Optimize enables the redundant-barrier-elimination dataflow pass.
	Optimize bool
	// Interproc additionally consumes the whole-program summaries
	// attached by internal/jvm/analysis (Program.SetInterproc): entry
	// facts let callees skip re-checking arguments proven checked at
	// every call site, callee summaries let callers skip re-checking
	// objects the callee checked, and proven barrier-free methods skip
	// insertion entirely. Implies Optimize; host entries compile a
	// separate conservative variant.
	Interproc bool
	// Inline splices small leaf methods into callers before barrier
	// insertion, widening the optimizer's intraprocedural scope (§5.1).
	Inline bool
}

// compiledMethod is an executable method variant.
type compiledMethod struct {
	method   *Method
	code     []Instr
	catch    []Instr
	maxStack int
	nLocal   int

	// Per-variant barrier accounting (body + catch): sites is the number
	// of access/static barrier sites before elimination, elided how many
	// the dataflow pass removed, emitted how many barrier instructions
	// insertion produced (including allocation-labeling barriers, which
	// are never elided).
	sites   int
	elided  int
	emitted int
}

// compileStats counts compiler work, feeding the compilation-time
// experiment in §6.1.
type compileStats struct {
	methodsCompiled int
	instrsIn        int
	instrsOut       int
	barriersEmitted int
	barriersElided  int
	inlinedCalls    int
}

// accessInfo describes a heap-access opcode's object operand depth at
// barrier time (before the access pops anything), or -1 for non-access
// ops.
func accessDepth(op Op) int {
	switch op {
	case OpGetField, OpArrayLen:
		return 0
	case OpPutField, OpALoad:
		return 1
	case OpAStore:
		return 2
	default:
		return -1
	}
}

func isRead(op Op) bool  { return op == OpGetField || op == OpALoad || op == OpArrayLen }
func isWrite(op Op) bool { return op == OpPutField || op == OpAStore }

// compile produces the executable variant of m for the given context.
// Secure-method bodies are always "inside" — the compiler knows a region
// method's context statically even in dynamic mode. host marks variants
// reached by Machine.Call, whose arguments never passed a barrier and so
// must not assume interprocedural entry facts.
func (p *Program) compile(m *Method, opts CompileOptions, inRegion, host bool, st *compileStats) *compiledMethod {
	st.methodsCompiled++
	st.instrsIn += len(m.Code)
	cm := &compiledMethod{method: m, maxStack: m.maxStack, nLocal: m.NLocal}
	src := m.Code
	if opts.Inline {
		// Inlining runs first so the later passes see the spliced callee
		// bodies.
		src, cm.nLocal = p.inlineCalls(src, m.NLocal, st)
		// maxStack is a capacity hint for the frame; inlined bodies stack
		// on top of the caller's operands.
		cm.maxStack = m.maxStack + 8
	}
	if opts.Mode == BarrierNone {
		// The unmodified baseline still runs the codegen pass (copy +
		// branch fixup) with zero insertions, so compile-time ratios
		// compare barrier work against a real compiler pass rather than
		// against a no-op.
		empty := barrierNeed{
			access: make([]bool, len(src)),
			static: make([]bool, len(src)),
			alloc:  make([]bool, len(src)),
		}
		cm.code = p.insertBarriers(src, empty, false, false, st)
		if m.Secure != nil && m.Secure.Catch != nil {
			emptyC := barrierNeed{
				access: make([]bool, len(m.Secure.Catch)),
				static: make([]bool, len(m.Secure.Catch)),
				alloc:  make([]bool, len(m.Secure.Catch)),
			}
			cm.catch = p.insertBarriers(m.Secure.Catch, emptyC, false, false, st)
		}
		st.instrsOut += len(cm.code) + len(cm.catch)
		return cm
	}
	optimize := opts.Optimize || opts.Interproc
	var ip []Summary
	var sum *Summary
	if opts.Interproc {
		ip, sum = p.interproc, p.summary(m)
	}
	dynamic := opts.Mode == BarrierDynamic && m.Secure == nil
	barrierFree := sum != nil && !opts.Inline && sum.BarrierFree

	if optimize {
		src, _ = peephole(src)
	}
	need := allBarriers(src)
	cm.sites = countBarriers(need)
	switch {
	case barrierFree:
		// Proven barrier-free: no access/static check can ever be needed,
		// so skip the dataflow pass and insert only allocation labeling.
		// The proof covers m.Code only, so inlined bodies (which splice in
		// callee barrier sites the proof never saw) take the dataflow
		// path instead.
		for i := range need.access {
			need.access[i] = false
		}
		for i := range need.static {
			need.static[i] = false
		}
	case optimize:
		var entry []uint8
		if sum != nil && !host && m.Secure == nil {
			entry = sum.EntryChecked
		}
		need = p.eliminateRedundant(ip, src, need, entry)
	}
	cm.elided = cm.sites - countBarriers(need)
	st.barriersElided += cm.elided
	emitted0 := st.barriersEmitted
	cm.code = p.insertBarriers(src, need, inRegion, dynamic, st)
	if dynamic || opts.Mode == BarrierDynamic {
		cm.maxStack++ // OpInRegion pushes a temporary
	}
	if m.Secure != nil && m.Secure.Catch != nil {
		// Catch blocks run with the region's labels in force. Entry facts
		// never apply: control may arrive from any raise point.
		catchNeed := allBarriers(m.Secure.Catch)
		cm.sites += countBarriers(catchNeed)
		if optimize {
			before := countBarriers(catchNeed)
			catchNeed = p.eliminateRedundant(ip, m.Secure.Catch, catchNeed, nil)
			d := before - countBarriers(catchNeed)
			cm.elided += d
			st.barriersElided += d
		}
		cm.catch = p.insertBarriers(m.Secure.Catch, catchNeed, true, false, st)
	}
	cm.emitted = st.barriersEmitted - emitted0
	if err := p.validateCompiled(m, cm.code); err != nil {
		panic(err) // compiler bug, not a program error
	}
	if cm.catch != nil {
		if err := p.validateCompiled(m, cm.catch); err != nil {
			panic(err)
		}
	}
	st.instrsOut += len(cm.code) + len(cm.catch)
	return cm
}

// barrierNeed records which source sites keep their barriers.
type barrierNeed struct {
	access []bool // heap accesses (indexed by pc)
	static []bool // static variable accesses
	alloc  []bool // allocation labeling barriers
}

func countBarriers(n barrierNeed) int {
	c := 0
	for _, b := range n.access {
		if b {
			c++
		}
	}
	for _, b := range n.static {
		if b {
			c++
		}
	}
	return c
}

func allBarriers(code []Instr) barrierNeed {
	n := barrierNeed{
		access: make([]bool, len(code)),
		static: make([]bool, len(code)),
		alloc:  make([]bool, len(code)),
	}
	for pc, in := range code {
		if accessDepth(in.Op) >= 0 {
			n.access[pc] = true
		}
		if in.Op == OpGetStatic || in.Op == OpPutStatic {
			n.static[pc] = true
		}
		if in.Op == OpNew || in.Op == OpNewArray {
			n.alloc[pc] = true
		}
	}
	return n
}

// insertLen returns how many instructions the barrier sequence for a
// source instruction occupies, excluding the instruction itself.
func insertLen(in Instr, need barrierNeed, pc int, dynamic, inRegion bool) int {
	switch {
	case accessDepth(in.Op) >= 0 && need.access[pc]:
		if dynamic {
			// inregion, barrier.sel — the select barrier consumes the
			// context flag and applies the matching check, modeling the
			// paper's inlined conditional barrier.
			return 2
		}
		return 1
	case (in.Op == OpGetStatic || in.Op == OpPutStatic) && need.static[pc]:
		if dynamic {
			// inregion, jmpifnot(skip), barrier.static
			return 3
		}
		if inRegion {
			return 1
		}
		// Outside regions statics are unrestricted: no barrier.
		return 0
	default:
		return 0
	}
}

// allocSuffixLen returns the instruction count emitted after an
// allocation for its labeling barrier.
func allocSuffixLen(in Instr, need barrierNeed, pc int, dynamic, inRegion bool) int {
	if (in.Op != OpNew && in.Op != OpNewArray) || !need.alloc[pc] {
		return 0
	}
	if dynamic {
		// inregion, jmpifnot(skip), barrier.alloc
		return 3
	}
	if inRegion {
		return 1
	}
	return 0
}

// validateCompiled is the compiler's downstream pass: an abstract stack
// simulation over the *emitted* code (barrier opcodes included) asserting
// the insertion pass preserved stack discipline and branch targets. Its
// cost is proportional to output size, so barrier expansion shows up in
// compilation time exactly as inlining bloat does in the paper's JIT
// (§6.1: "we instruct the compiler to inline the barriers aggressively,
// which bloats the code and slows downstream optimizations").
func (p *Program) validateCompiled(m *Method, code []Instr) error {
	const unvisited = -1
	depth := make([]int, len(code))
	for i := range depth {
		depth[i] = unvisited
	}
	work := make([]int, 0, 16)
	work = append(work, 0)
	depth[0] = 0
	flow := func(from, to, d int) error {
		if to < 0 || to >= len(code) {
			return fmt.Errorf("jvm: compiled %s: branch target %d out of range (from %d)", m.Name, to, from)
		}
		if depth[to] == unvisited {
			depth[to] = d
			work = append(work, to)
		} else if depth[to] != d {
			return fmt.Errorf("jvm: compiled %s: inconsistent stack depth at %d", m.Name, to)
		}
		return nil
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code[pc]
		d := depth[pc]
		switch in.Op {
		case OpBarrierRead, OpBarrierWrite, OpBarrierOutR, OpBarrierOutW, OpBarrierAlloc:
			if d <= int(in.A) {
				return fmt.Errorf("jvm: compiled %s: barrier at %d peeks depth %d with stack %d", m.Name, pc, in.A, d)
			}
		case OpBarrierSelR, OpBarrierSelW:
			// The select barrier consumes the OpInRegion flag first.
			if d-1 <= int(in.A) {
				return fmt.Errorf("jvm: compiled %s: select barrier at %d peeks depth %d with stack %d", m.Name, pc, in.A, d-1)
			}
		}
		pops, pushes, ok := p.effect(in)
		if !ok {
			return fmt.Errorf("jvm: compiled %s: invoke of undefined method %d at %d", m.Name, in.A, pc)
		}
		if d < pops {
			return fmt.Errorf("jvm: compiled %s: stack underflow at %d", m.Name, pc)
		}
		nd := d - pops + pushes
		switch {
		case in.Op == OpReturn || in.Op == OpReturnVal:
		case in.Op == OpJmp:
			if err := flow(pc, int(in.A), nd); err != nil {
				return err
			}
		case in.Op == OpJmpIf || in.Op == OpJmpIfNot:
			if err := flow(pc, int(in.A), nd); err != nil {
				return err
			}
			if err := flow(pc, pc+1, nd); err != nil {
				return err
			}
		default:
			if pc+1 >= len(code) {
				return fmt.Errorf("jvm: compiled %s: falls off end", m.Name)
			}
			if err := flow(pc, pc+1, nd); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertBarriers rewrites code with barrier sequences and remaps branch
// targets — the address-relocation pass every barrier-inserting compiler
// needs.
func (p *Program) insertBarriers(code []Instr, need barrierNeed, inRegion, dynamic bool, st *compileStats) []Instr {
	// Pass 1: compute the new position of every source instruction's
	// emission group. Branch targets remap to the group START (the barrier
	// prefix, not the instruction) so a jump edge cannot skip a check that
	// the fall-through edge would run.
	newPos := make([]int32, len(code)+1)
	pos := int32(0)
	for pc, in := range code {
		newPos[pc] = pos
		pos += int32(insertLen(in, need, pc, dynamic, inRegion)) + 1 +
			int32(allocSuffixLen(in, need, pc, dynamic, inRegion))
	}
	newPos[len(code)] = pos

	// Pass 2: emit.
	out := make([]Instr, 0, pos)
	for pc, in := range code {
		depth := accessDepth(in.Op)
		switch {
		case depth >= 0 && need.access[pc]:
			read := isRead(in.Op)
			if dynamic {
				sel := OpBarrierSelR
				if !read {
					sel = OpBarrierSelW
				}
				out = append(out,
					Instr{Op: OpInRegion},
					Instr{Op: sel, A: int32(depth)},
				)
			} else if inRegion {
				op := OpBarrierRead
				if !read {
					op = OpBarrierWrite
				}
				out = append(out, Instr{Op: op, A: int32(depth)})
			} else {
				op := OpBarrierOutR
				if !read {
					op = OpBarrierOutW
				}
				out = append(out, Instr{Op: op, A: int32(depth)})
			}
			st.barriersEmitted++
		case (in.Op == OpGetStatic || in.Op == OpPutStatic) && need.static[pc]:
			op := OpBarrierStaticR
			if in.Op == OpPutStatic {
				op = OpBarrierStaticW
			}
			if dynamic {
				base := int32(len(out))
				out = append(out,
					Instr{Op: OpInRegion},
					Instr{Op: OpJmpIfNot, A: base + 3},
					Instr{Op: op},
				)
				st.barriersEmitted++
			} else if inRegion {
				out = append(out, Instr{Op: op})
				st.barriersEmitted++
			}
			// Outside regions statics are unrestricted: no barrier.
		}

		// The instruction itself, with branch targets remapped.
		emitted := in
		if in.Op.isJump() {
			emitted.A = newPos[in.A]
		}
		out = append(out, emitted)

		// Allocation labeling runs after the object is on the stack.
		if (in.Op == OpNew || in.Op == OpNewArray) && need.alloc[pc] {
			if dynamic {
				base := int32(len(out))
				out = append(out,
					Instr{Op: OpInRegion},
					Instr{Op: OpJmpIfNot, A: base + 3},
					Instr{Op: OpBarrierAlloc},
				)
				st.barriersEmitted++
			} else if inRegion {
				out = append(out, Instr{Op: OpBarrierAlloc})
				st.barriersEmitted++
			}
		}
	}
	return out
}

// interprocCheck validates an interprocedural compilation request.
func (p *Program) interprocCheck(opts CompileOptions) error {
	if opts.Interproc && p.interproc == nil {
		return fmt.Errorf("jvm: CompileOptions.Interproc set but no analysis attached (run analysis.Attach first)")
	}
	return nil
}

// summary returns m's row of the attached summary table, or nil.
func (p *Program) summary(m *Method) *Summary {
	if m.index >= len(p.interproc) {
		return nil
	}
	return &p.interproc[m.index]
}

// entryFactsDiffer reports whether interprocedural entry facts would make
// the invoke-reached variant of m differ from the host-entry variant.
func (p *Program) entryFactsDiffer(m *Method, opts CompileOptions) bool {
	sum := p.summary(m)
	if !opts.Interproc || sum == nil || m.Secure != nil {
		return false
	}
	for _, bits := range sum.EntryChecked {
		if bits != 0 {
			return true
		}
	}
	return false
}

// variantFor returns (compiling on demand) the executable variant of m for
// the given context, cloning methods reached from both contexts (§5.1).
// It is called by the interpreter at invoke time, mirroring
// JIT-on-first-execution. host marks calls entering through
// Machine.Call: when interprocedural entry facts apply to m, those calls
// get a separate conservative variant, because host arguments never
// passed a barrier at any call site. Callers validate opts with
// interprocCheck first.
func (p *Program) variantFor(m *Method, opts CompileOptions, inRegion, host bool, st *compileStats) *compiledMethod {
	if m.Secure != nil {
		inRegion = true // region bodies are always inside
	}
	idx := 0
	if inRegion {
		idx = 1
	}
	if opts.Mode == BarrierDynamic && m.Secure == nil {
		idx = 0 // single dynamic variant
	}
	slots := &m.variants
	useHost := host && p.entryFactsDiffer(m, opts)
	if useHost {
		slots = &m.hostVariants
	}
	if slots[idx] == nil {
		slots[idx] = p.compile(m, opts, inRegion, useHost, st)
	}
	return slots[idx]
}

// ResetCompilation discards all compiled variants (between benchmark
// configurations).
func (p *Program) ResetCompilation() {
	for _, m := range p.Methods {
		m.variants = [2]*compiledMethod{}
		m.hostVariants = [2]*compiledMethod{}
	}
}

// CompileAll eagerly compiles every method (both variants for dual-context
// static mode) and returns compiler work statistics — the §6.1
// compilation-time experiment. Variants are compiled as invoke-reached;
// host-entry variants (interprocedural mode) compile lazily on first
// Machine.Call.
func (p *Program) CompileAll(opts CompileOptions) (CompileReport, error) {
	if err := p.Verify(); err != nil {
		return CompileReport{}, err
	}
	if err := p.interprocCheck(opts); err != nil {
		return CompileReport{}, err
	}
	st := &compileStats{}
	for _, m := range p.Methods {
		p.variantFor(m, opts, false, false, st)
		if m.Secure == nil && opts.Mode == BarrierStatic {
			p.variantFor(m, opts, true, false, st)
		}
	}
	return CompileReport{
		Methods:         st.methodsCompiled,
		InstrsIn:        st.instrsIn,
		InstrsOut:       st.instrsOut,
		BarriersEmitted: st.barriersEmitted,
		BarriersElided:  st.barriersElided,
		InlinedCalls:    st.inlinedCalls,
	}, nil
}

// CompileReport summarizes compiler work.
type CompileReport struct {
	Methods         int
	InstrsIn        int
	InstrsOut       int
	BarriersEmitted int
	BarriersElided  int
	InlinedCalls    int
}

// MethodBarrierStats is one compiled variant's barrier accounting, for
// per-method optimization reports (laminar-asm run -stats / dis
// -compiled).
type MethodBarrierStats struct {
	Method      string
	Variant     string // outside, inside, host-outside, host-inside
	Sites       int    // access+static barrier sites before elimination
	Elided      int    // sites removed by the dataflow pass
	Emitted     int    // barrier instructions inserted (incl. allocation labeling)
	BarrierFree bool   // proven barrier-free by the whole-program analysis
}

// BarrierStats reports per-method barrier counts for every variant
// compiled so far, in method-table order.
func (p *Program) BarrierStats() []MethodBarrierStats {
	var out []MethodBarrierStats
	add := func(m *Method, cm *compiledMethod, variant string) {
		if cm == nil {
			return
		}
		sum := p.summary(m)
		out = append(out, MethodBarrierStats{
			Method: m.Name, Variant: variant,
			Sites: cm.sites, Elided: cm.elided, Emitted: cm.emitted,
			BarrierFree: sum != nil && sum.BarrierFree,
		})
	}
	for _, m := range p.Methods {
		add(m, m.variants[0], "outside")
		add(m, m.variants[1], "inside")
		add(m, m.hostVariants[0], "host-outside")
		add(m, m.hostVariants[1], "host-inside")
	}
	return out
}
