package analysis

import (
	"fmt"
	"sort"

	"laminar/internal/jvm"
)

// This file implements the interprocedural secrecy/integrity taint
// analysis behind the three policy-invariant lint rules:
//
//	robust-declassification  low-integrity data influences the data,
//	                         scope (guarding branch / call path), or
//	                         destination of a declassification site;
//	transparent-endorsement  secret data influences an endorsement
//	                         decision or a branch that guards one;
//	implicit-flow-fanout     a branch on secret data selects between
//	                         distinguishable public effects (the
//	                         "evil router" control-flow encoding).
//
// The analysis is a forward may-analysis over the same CFG/worklist
// machinery as the checked-facts pass (facts.go), generalized in three
// ways: the lattice tracks a two-bit taint (secret, low-integrity) per
// value plus symbolic dependences on the enclosing method's parameters;
// implicit flows are modeled with a per-pc control taint derived from
// postdominator-based control dependence; and the interprocedural part is
// a global fixpoint over per-method entry/return/heap-effect tables
// rather than the meet-over-call-sites summaries of summary.go (taint
// joins where checked-facts meet).
//
// Source model: the program's host entry point is `main`, whose integer
// arguments are the secrets; static slots hold host-provided public
// (low-integrity) inputs, so every getstatic is a low-integrity source
// and statics written by the program accumulate whatever taint was
// stored. Methods never called and not named main get no entry taint.
//
// Site model (mirrors how examples and the declass package use regions):
// a declassification site is a secure method holding minus capabilities
// (it can drop secrecy on entry — the MiniJVM analogue of
// declass.Registry.Invoke's capability-holding module region); an
// endorsement site is a secure method carrying integrity labels (its
// execution endorses data, the analogue of the endorsement decision
// behind declass.Registry.Load).

// Taint bits.
const (
	// TaintSecret marks data derived from the program's secret inputs
	// (main's arguments).
	TaintSecret uint8 = 1 << iota
	// TaintLow marks data derived from low-integrity inputs (statics).
	TaintLow
)

const taintAll = TaintSecret | TaintLow

// IsDeclassifier reports whether m is a declassification site: a security
// region holding minus capabilities, able to drop secrecy tags on entry.
func IsDeclassifier(m *jvm.Method) bool {
	return m.Secure != nil && !m.Secure.Caps.Minus().IsEmpty()
}

// IsEndorser reports whether m is an endorsement site: a security region
// carrying integrity labels, whose execution vouches for what it writes.
func IsEndorser(m *jvm.Method) bool {
	return m.Secure != nil && !m.Secure.Labels.I.IsEmpty()
}

// taintVal is the per-value lattice element: concrete taint bits plus
// symbolic dependences on the enclosing method's parameters — deps bit k
// means "includes the entry VALUE of parameter k", hdeps bit k means
// "includes the entry HEAP contents reachable from parameter k". The
// symbolic part lets one intra-method solve serve every call site; the
// global tables (entryVal/entryHeap) resolve it to concrete bits.
type taintVal struct {
	bits  uint8
	deps  uint32
	hdeps uint32
}

func (t taintVal) or(o taintVal) taintVal {
	return taintVal{t.bits | o.bits, t.deps | o.deps, t.hdeps | o.hdeps}
}

func (t taintVal) isZero() bool { return t.bits == 0 && t.deps == 0 && t.hdeps == 0 }

// paramBit returns the dependence mask bit for parameter k (parameters
// beyond 32 fall back to bit 31, erring conservative-by-aliasing rather
// than dropping the dependence).
func paramBit(k int) uint32 {
	if k >= 32 {
		k = 31
	}
	return 1 << uint(k)
}

func paramMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}

// Origin sentinels for the taint state, extending the facts.go encoding:
// values >= 0 name a parameter; fresh allocations are tracked per
// allocation SITE (not one shared bucket) so a clean object and a
// secret-carrying object allocated in the same method do not alias.
const (
	taintOriginInt      = -4 // definitely a non-reference (int) value
	taintOriginSiteBase = -5 // allocation site s encodes as -(5+s)
)

func siteOrigin(site int) int16 { return int16(taintOriginSiteBase - site) }

// taintState is the per-program-point lattice element of the may-analysis:
// per-slot value taint and origin, plus the heap buckets — contents
// written (so far, on some path) into each parameter's object and into
// each local allocation site's objects.
type taintState struct {
	slots  []taintVal
	orig   []int16
	hparam []taintVal
	sites  []taintVal
}

func newTaintState(nLocal, nArgs, nSites int) *taintState {
	return &taintState{
		slots:  make([]taintVal, nLocal),
		orig:   make([]int16, nLocal),
		hparam: make([]taintVal, nArgs),
		sites:  make([]taintVal, nSites),
	}
}

func (s *taintState) Clone() State {
	c := newTaintState(len(s.slots), len(s.hparam), len(s.sites))
	copy(c.slots, s.slots)
	copy(c.orig, s.orig)
	copy(c.hparam, s.hparam)
	copy(c.sites, s.sites)
	return c
}

// Merge joins taint (may-analysis: union). Origins merge as in facts.go:
// top absorbs, equal survives, conflict decays to unknown.
func (s *taintState) Merge(other State) bool {
	o := other.(*taintState)
	changed := false
	for i := range s.slots {
		if nv := s.slots[i].or(o.slots[i]); nv != s.slots[i] {
			s.slots[i] = nv
			changed = true
		}
		switch {
		case s.orig[i] == o.orig[i] || o.orig[i] == originTop:
		case s.orig[i] == originTop:
			s.orig[i] = o.orig[i]
			changed = true
		default:
			if s.orig[i] != originUnknown {
				s.orig[i] = originUnknown
				changed = true
			}
		}
	}
	for i := range s.hparam {
		if nv := s.hparam[i].or(o.hparam[i]); nv != s.hparam[i] {
			s.hparam[i] = nv
			changed = true
		}
	}
	for i := range s.sites {
		if nv := s.sites[i].or(o.sites[i]); nv != s.sites[i] {
			s.sites[i] = nv
			changed = true
		}
	}
	return changed
}

func (s *taintState) Equal(other State) bool {
	o := other.(*taintState)
	for i := range s.slots {
		if s.slots[i] != o.slots[i] || s.orig[i] != o.orig[i] {
			return false
		}
	}
	for i := range s.hparam {
		if s.hparam[i] != o.hparam[i] {
			return false
		}
	}
	for i := range s.sites {
		if s.sites[i] != o.sites[i] {
			return false
		}
	}
	return true
}

// methodInfo caches the per-code-array structures the analysis needs.
type methodInfo struct {
	cfg     *CFG
	jt      []bool
	sites   map[int]int // pc of OpNew/OpNewArray -> allocation site index
	nsites  int
	pcT     []taintVal // per-pc control taint (symbolic), grows monotonically
	inCatch bool
}

func newMethodInfo(code []jvm.Instr, inCatch bool) *methodInfo {
	mi := &methodInfo{
		cfg:     BuildCFG(code),
		jt:      jumpTargets(code),
		sites:   make(map[int]int),
		pcT:     make([]taintVal, len(code)),
		inCatch: inCatch,
	}
	for pc, in := range code {
		if in.Op == jvm.OpNew || in.Op == jvm.OpNewArray {
			mi.sites[pc] = mi.nsites
			mi.nsites++
		}
	}
	return mi
}

// taintAnalysis holds the global interprocedural fixpoint tables.
type taintAnalysis struct {
	prog    *jvm.Program
	graph   *CallGraph
	mainIdx int

	body  []*methodInfo // per method: body info
	catch []*methodInfo // per method: catch info (nil if none)

	// Concrete taint arriving at each method's parameters, joined over
	// all call sites (plus the host-entry seed for main).
	entryVal  [][]uint8
	entryHeap [][]uint8
	// ret[mi] is the symbolic taint of mi's returned value (in terms of
	// mi's own parameters); retHeap[mi] is the taint of the heap contents
	// reachable from a returned reference.
	ret     []taintVal
	retHeap []taintVal
	// heapOut[mi][k] is the symbolic taint mi writes into parameter k's
	// object during a call.
	heapOut [][]taintVal
	// declassIn/endorseIn bit k: parameter k's data reaches a
	// declassification/endorsement site through mi (by being read at the
	// site, flowing to an in-context publication, or guarding entry).
	declassIn []uint32
	endorseIn []uint32
	// statics[slot] accumulates the taint of everything stored to that
	// static slot. Slots start at TaintLow (host-set public inputs).
	// Publications from inside a declassification context shed
	// TaintSecret (the declassifier sanctions them) and from inside an
	// endorsement context shed TaintLow (the endorser vouches for them) —
	// the lint rules judge the PRE-laundering taint; downstream readers
	// see the post-laundering taint, mirroring the DIFC semantics.
	statics []uint8

	isDecl, isEnd       []bool
	reachDecl, reachEnd []bool // is, or transitively invokes, a site
	hasPub              []bool // transitively executes a putstatic
	inDeclCtx, inEndCtx []bool // may run while such a region is active
	changed             bool
}

func newTaintAnalysis(p *jvm.Program) *taintAnalysis {
	n := len(p.Methods)
	ta := &taintAnalysis{
		prog:      p,
		graph:     BuildCallGraph(p),
		mainIdx:   -1,
		body:      make([]*methodInfo, n),
		catch:     make([]*methodInfo, n),
		entryVal:  make([][]uint8, n),
		entryHeap: make([][]uint8, n),
		ret:       make([]taintVal, n),
		retHeap:   make([]taintVal, n),
		heapOut:   make([][]taintVal, n),
		declassIn: make([]uint32, n),
		endorseIn: make([]uint32, n),
		statics:   make([]uint8, p.NStatics),
		isDecl:    make([]bool, n),
		isEnd:     make([]bool, n),
		reachDecl: make([]bool, n),
		reachEnd:  make([]bool, n),
		hasPub:    make([]bool, n),
		inDeclCtx: make([]bool, n),
		inEndCtx:  make([]bool, n),
	}
	for i := range ta.statics {
		ta.statics[i] = TaintLow
	}
	for mi, m := range p.Methods {
		ta.body[mi] = newMethodInfo(m.Code, false)
		if m.Secure != nil && m.Secure.Catch != nil {
			ta.catch[mi] = newMethodInfo(m.Secure.Catch, true)
		}
		ta.entryVal[mi] = make([]uint8, m.NArgs)
		ta.entryHeap[mi] = make([]uint8, m.NArgs)
		ta.heapOut[mi] = make([]taintVal, m.NArgs)
		ta.isDecl[mi] = IsDeclassifier(m)
		ta.isEnd[mi] = IsEndorser(m)
		if m.Name == "main" {
			ta.mainIdx = mi
		}
	}
	if ta.mainIdx >= 0 {
		for k := range ta.entryVal[ta.mainIdx] {
			ta.entryVal[ta.mainIdx][k] = TaintSecret
		}
	}
	ta.computeClosures()
	return ta
}

// computeClosures derives the call-graph reachability sets: upward
// (reaches a site, has a publication) and downward (runs in a site's
// context). Catch-block call sites participate like body sites.
func (ta *taintAnalysis) computeClosures() {
	n := len(ta.prog.Methods)
	hasOwnPub := func(code []jvm.Instr) bool {
		for _, in := range code {
			if in.Op == jvm.OpPutStatic {
				return true
			}
		}
		return false
	}
	for mi, m := range ta.prog.Methods {
		ta.reachDecl[mi] = ta.isDecl[mi]
		ta.reachEnd[mi] = ta.isEnd[mi]
		ta.hasPub[mi] = hasOwnPub(m.Code)
		if m.Secure != nil && m.Secure.Catch != nil {
			ta.hasPub[mi] = ta.hasPub[mi] || hasOwnPub(m.Secure.Catch)
		}
		ta.inDeclCtx[mi] = ta.isDecl[mi]
		ta.inEndCtx[mi] = ta.isEnd[mi]
	}
	for changed := true; changed; {
		changed = false
		for mi := 0; mi < n; mi++ {
			for _, c := range ta.graph.Callees[mi] {
				if ta.reachDecl[c] && !ta.reachDecl[mi] {
					ta.reachDecl[mi] = true
					changed = true
				}
				if ta.reachEnd[c] && !ta.reachEnd[mi] {
					ta.reachEnd[mi] = true
					changed = true
				}
				if ta.hasPub[c] && !ta.hasPub[mi] {
					ta.hasPub[mi] = true
					changed = true
				}
				if ta.inDeclCtx[mi] && !ta.inDeclCtx[c] {
					ta.inDeclCtx[c] = true
					changed = true
				}
				if ta.inEndCtx[mi] && !ta.inEndCtx[c] {
					ta.inEndCtx[c] = true
					changed = true
				}
			}
		}
	}
}

// resolve folds a symbolic taint down to concrete bits using the entry
// tables of the method it is symbolic over.
func (ta *taintAnalysis) resolve(mi int, tv taintVal) uint8 {
	b := tv.bits
	ev, eh := ta.entryVal[mi], ta.entryHeap[mi]
	for k := 0; k < len(ev); k++ {
		if tv.deps&paramBit(k) != 0 {
			b |= ev[k]
		}
		if tv.hdeps&paramBit(k) != 0 {
			b |= eh[k]
		}
	}
	return b
}

func (ta *taintAnalysis) joinEntry(ci, k int, val, heap uint8) {
	if k >= len(ta.entryVal[ci]) {
		return
	}
	if nv := ta.entryVal[ci][k] | val; nv != ta.entryVal[ci][k] {
		ta.entryVal[ci][k] = nv
		ta.changed = true
	}
	if nv := ta.entryHeap[ci][k] | heap; nv != ta.entryHeap[ci][k] {
		ta.entryHeap[ci][k] = nv
		ta.changed = true
	}
}

func (ta *taintAnalysis) joinRet(mi int, tv taintVal) {
	if nv := ta.ret[mi].or(tv); nv != ta.ret[mi] {
		ta.ret[mi] = nv
		ta.changed = true
	}
}

func (ta *taintAnalysis) joinRetHeap(mi int, tv taintVal) {
	if nv := ta.retHeap[mi].or(tv); nv != ta.retHeap[mi] {
		ta.retHeap[mi] = nv
		ta.changed = true
	}
}

// staticAt reads one static slot's accumulated taint (out-of-range slots
// trap at runtime; nothing flows).
func (ta *taintAnalysis) staticAt(slot int32) uint8 {
	if slot >= 0 && int(slot) < len(ta.statics) {
		return ta.statics[slot]
	}
	return 0
}

// allStatic joins every slot — the conservative bound for values that
// may have come from any static.
func (ta *taintAnalysis) allStatic() uint8 {
	var b uint8
	for _, s := range ta.statics {
		b |= s
	}
	return b
}

func (ta *taintAnalysis) joinHeapOut(mi, k int, tv taintVal) {
	if k >= len(ta.heapOut[mi]) {
		return
	}
	if nv := ta.heapOut[mi][k].or(tv); nv != ta.heapOut[mi][k] {
		ta.heapOut[mi][k] = nv
		ta.changed = true
	}
}

func (ta *taintAnalysis) joinStatic(slot int32, bits uint8) {
	if slot < 0 || int(slot) >= len(ta.statics) {
		return
	}
	if nv := ta.statics[slot] | bits; nv != ta.statics[slot] {
		ta.statics[slot] = nv
		ta.changed = true
	}
}

// joinAllStatics smears bits over every slot — used for writes whose
// destination object may be reachable from statics.
func (ta *taintAnalysis) joinAllStatics(bits uint8) {
	for i := range ta.statics {
		if nv := ta.statics[i] | bits; nv != ta.statics[i] {
			ta.statics[i] = nv
			ta.changed = true
		}
	}
}

func (ta *taintAnalysis) joinMask(mask *uint32, bits uint32) {
	if nv := *mask | bits; nv != *mask {
		*mask = nv
		ta.changed = true
	}
}

// taintProblem instantiates the taint analysis over one code array.
type taintProblem struct {
	ta   *taintAnalysis
	m    *jvm.Method
	mi   int
	info *methodInfo
}

// conservativeAll is the sound over-approximation of "any value this
// method could have seen": everything derives from its parameters (value
// or heap), from statics, or — in main — from the secret inputs. Used for
// values the tracer cannot follow (cross-block stack values, unknown
// heap).
func (pr *taintProblem) conservativeAll() taintVal {
	bits := pr.ta.allStatic()
	if pr.mi == pr.ta.mainIdx && pr.m.NArgs > 0 {
		bits |= TaintSecret
	}
	return taintVal{bits: bits, deps: paramMask(pr.m.NArgs), hdeps: paramMask(pr.m.NArgs)}
}

func (pr *taintProblem) Direction() Direction { return Forward }

func (pr *taintProblem) Boundary() State {
	s := newTaintState(pr.m.NLocal, pr.m.NArgs, pr.info.nsites)
	for i := range s.orig {
		// Non-parameter locals start as the integer zero.
		s.orig[i] = taintOriginInt
	}
	for k := 0; k < pr.m.NArgs && k < pr.m.NLocal; k++ {
		s.orig[k] = int16(k)
		s.slots[k] = taintVal{deps: paramBit(k)}
	}
	if pr.info.inCatch {
		// Catch code runs with whatever frame state the violation left
		// behind, under violation-dependent control.
		all := pr.conservativeAll()
		for i := range s.slots {
			s.slots[i] = all
			s.orig[i] = originUnknown
		}
		for k := range s.hparam {
			s.hparam[k] = all
		}
	}
	return s
}

func (pr *taintProblem) Top() State {
	s := newTaintState(pr.m.NLocal, pr.m.NArgs, pr.info.nsites)
	for i := range s.orig {
		s.orig[i] = originTop
	}
	return s
}

func (pr *taintProblem) Transfer(b int, st State) {
	s := st.(*taintState)
	blk := pr.info.cfg.Blocks[b]
	for pc := blk.Start; pc < blk.End; pc++ {
		pr.step(s, pc)
	}
}

// src traces the stack value at depth (0 = top) just before code[pc] back
// to its producing pc within the block, or -1 (same algorithm as
// facts.go, shared via the cached jt array).
func (pr *taintProblem) src(pc, depth int) int {
	code := pr.info.cfg.Code
	want := depth
	for i := pc - 1; i >= 0; i-- {
		in := code[i]
		if in.Op.IsJump() || in.Op == jvm.OpReturn || in.Op == jvm.OpReturnVal {
			return -1
		}
		if pr.info.jt[i+1] {
			return -1
		}
		var pops, pushes int
		if in.Op == jvm.OpInvoke {
			if int(in.A) < 0 || int(in.A) >= len(pr.ta.prog.Methods) {
				return -1
			}
			callee := pr.ta.prog.Methods[in.A]
			pops = callee.NArgs
			if callee.ReturnsValue() {
				pushes = 1
			}
		} else {
			pops, pushes = in.Op.StackEffect()
		}
		if pushes > want {
			return i
		}
		want = want - pushes + pops
	}
	return -1
}

// valueTaint computes the symbolic taint of the stack value at depth just
// before pc.
func (pr *taintProblem) valueTaint(s *taintState, pc, depth int) taintVal {
	src := pr.src(pc, depth)
	if src < 0 {
		return pr.conservativeAll()
	}
	code := pr.info.cfg.Code
	in := code[src]
	switch in.Op {
	case jvm.OpConst, jvm.OpNew, jvm.OpInRegion:
		return taintVal{}
	case jvm.OpNewArray:
		// The reference itself is fresh; its observable length is folded
		// into the site bucket at allocation (step).
		return taintVal{}
	case jvm.OpLoad:
		if slot := int(in.A); slot < len(s.slots) {
			return s.slots[slot]
		}
		return pr.conservativeAll()
	case jvm.OpDup:
		return pr.valueTaint(s, src, 0)
	case jvm.OpGetStatic:
		return taintVal{bits: pr.ta.staticAt(in.A)}
	case jvm.OpGetField:
		obj := pr.valueTaint(s, src, 0)
		return obj.or(pr.bucketTaint(s, pr.valueOrigin(s, src, 0)))
	case jvm.OpALoad:
		idx := pr.valueTaint(s, src, 0)
		arr := pr.valueTaint(s, src, 1)
		return idx.or(arr).or(pr.bucketTaint(s, pr.valueOrigin(s, src, 1)))
	case jvm.OpArrayLen:
		arr := pr.valueTaint(s, src, 0)
		return arr.or(pr.bucketTaint(s, pr.valueOrigin(s, src, 0)))
	case jvm.OpInvoke:
		ci := int(in.A)
		if ci < 0 || ci >= len(pr.ta.prog.Methods) {
			return pr.conservativeAll()
		}
		return pr.substCallee(s, src, ci, pr.ta.ret[ci])
	default:
		pops, _ := in.Op.StackEffect()
		if pops > 0 && !in.Op.IsBarrier() {
			// Arithmetic/comparison: join the operands.
			var tv taintVal
			for d := 0; d < pops; d++ {
				tv = tv.or(pr.valueTaint(s, src, d))
			}
			return tv
		}
		return pr.conservativeAll()
	}
}

// valueOrigin classifies the stack value at depth just before pc: a
// parameter, a local allocation site, a definite int, or unknown (which
// conservatively means "possibly a reference to anything").
func (pr *taintProblem) valueOrigin(s *taintState, pc, depth int) int16 {
	src := pr.src(pc, depth)
	if src < 0 {
		return originUnknown
	}
	code := pr.info.cfg.Code
	in := code[src]
	switch in.Op {
	case jvm.OpLoad:
		if slot := int(in.A); slot < len(s.orig) {
			return s.orig[slot]
		}
		return originUnknown
	case jvm.OpNew, jvm.OpNewArray:
		if idx, ok := pr.info.sites[src]; ok {
			return siteOrigin(idx)
		}
		return originUnknown
	case jvm.OpDup:
		return pr.valueOrigin(s, src, 0)
	case jvm.OpConst, jvm.OpAdd, jvm.OpSub, jvm.OpMul, jvm.OpDiv, jvm.OpMod,
		jvm.OpNeg, jvm.OpCmpEQ, jvm.OpCmpNE, jvm.OpCmpLT, jvm.OpCmpLE,
		jvm.OpCmpGT, jvm.OpCmpGE, jvm.OpArrayLen, jvm.OpInRegion:
		return taintOriginInt
	default:
		// getfield/aload/getstatic/invoke results may be references.
		return originUnknown
	}
}

// bucketTaint returns the (symbolic) taint of the heap contents reachable
// from a value with the given origin.
func (pr *taintProblem) bucketTaint(s *taintState, origin int16) taintVal {
	switch {
	case origin >= 0:
		k := int(origin)
		tv := taintVal{hdeps: paramBit(k)}
		if k < len(s.hparam) {
			tv = tv.or(s.hparam[k])
		}
		return tv
	case origin <= taintOriginSiteBase:
		if idx := int(taintOriginSiteBase - origin); idx < len(s.sites) {
			return s.sites[idx]
		}
		return pr.conservativeAll()
	case origin == taintOriginInt:
		return taintVal{}
	default:
		return pr.conservativeAll()
	}
}

// heapTaint is the taint of the heap contents reachable from the stack
// value at depth just before pc, if it is a reference (zero for definite
// ints). Field/array-element reads return zero EXTRA taint: their source
// container's bucket is already folded into the value's taint, and a
// reference stored into a container folds its contents at store time
// (a snapshot heap model: field-insensitive, one level deep — mutating a
// nested reference after linking it is out of model, which the random
// generator and fixtures respect by keeping fields integer-valued).
func (pr *taintProblem) heapTaint(s *taintState, pc, depth int) taintVal {
	src := pr.src(pc, depth)
	if src < 0 {
		return pr.conservativeAll()
	}
	code := pr.info.cfg.Code
	in := code[src]
	switch in.Op {
	case jvm.OpConst, jvm.OpAdd, jvm.OpSub, jvm.OpMul, jvm.OpDiv, jvm.OpMod,
		jvm.OpNeg, jvm.OpCmpEQ, jvm.OpCmpNE, jvm.OpCmpLT, jvm.OpCmpLE,
		jvm.OpCmpGT, jvm.OpCmpGE, jvm.OpArrayLen, jvm.OpInRegion:
		return taintVal{}
	case jvm.OpLoad:
		if slot := int(in.A); slot < len(s.orig) {
			return pr.bucketTaint(s, s.orig[slot])
		}
		return pr.conservativeAll()
	case jvm.OpNew, jvm.OpNewArray:
		if idx, ok := pr.info.sites[src]; ok {
			return pr.bucketTaint(s, siteOrigin(idx))
		}
		return pr.conservativeAll()
	case jvm.OpDup:
		return pr.heapTaint(s, src, 0)
	case jvm.OpGetStatic:
		return taintVal{bits: pr.ta.staticAt(in.A)}
	case jvm.OpGetField, jvm.OpALoad:
		return taintVal{} // snapshot model: covered by the value's taint
	case jvm.OpInvoke:
		ci := int(in.A)
		if ci < 0 || ci >= len(pr.ta.prog.Methods) {
			return pr.conservativeAll()
		}
		return pr.substCallee(s, src, ci, pr.ta.retHeap[ci])
	default:
		return pr.conservativeAll()
	}
}

// storedTaint is the full taint that escapes when the value at depth is
// written somewhere observable: its value taint, the current control
// taint, and — when it is a reference — its heap contents.
func (pr *taintProblem) storedTaint(s *taintState, pc, depth int) taintVal {
	return pr.valueTaint(s, pc, depth).or(pr.info.pcT[pc]).or(pr.heapTaint(s, pc, depth))
}

// writeBucket records a heap write into the object designated by origin.
func (pr *taintProblem) writeBucket(s *taintState, origin int16, tv taintVal) {
	switch {
	case origin >= 0:
		if k := int(origin); k < len(s.hparam) {
			s.hparam[k] = s.hparam[k].or(tv)
		}
	case origin <= taintOriginSiteBase:
		if idx := int(taintOriginSiteBase - origin); idx < len(s.sites) {
			s.sites[idx] = s.sites[idx].or(tv)
		}
	case origin == taintOriginInt:
		// A write through an int would trap; nothing flows.
	default:
		// Unknown target: the write may land in any object in scope.
		for k := range s.hparam {
			s.hparam[k] = s.hparam[k].or(tv)
		}
		for i := range s.sites {
			s.sites[i] = s.sites[i].or(tv)
		}
	}
}

// step is the per-instruction transfer function (pure on the state; the
// global tables are updated by the replay in scan).
func (pr *taintProblem) step(s *taintState, pc int) {
	code := pr.info.cfg.Code
	in := code[pc]
	switch in.Op {
	case jvm.OpStore:
		d := int(in.A)
		if d >= len(s.slots) {
			return
		}
		s.slots[d] = pr.valueTaint(s, pc, 0).or(pr.info.pcT[pc])
		s.orig[d] = pr.valueOrigin(s, pc, 0)
	case jvm.OpNewArray:
		// The array's observable length derives from the popped length
		// operand; fold it into the site bucket.
		if idx, ok := pr.info.sites[pc]; ok && idx < len(s.sites) {
			tv := pr.valueTaint(s, pc, 0).or(pr.info.pcT[pc])
			s.sites[idx] = s.sites[idx].or(tv)
		}
	case jvm.OpPutField:
		tv := pr.storedTaint(s, pc, 0)
		pr.writeBucket(s, pr.valueOrigin(s, pc, 1), tv)
	case jvm.OpAStore:
		tv := pr.storedTaint(s, pc, 0).or(pr.valueTaint(s, pc, 1))
		pr.writeBucket(s, pr.valueOrigin(s, pc, 2), tv)
	case jvm.OpInvoke:
		ci := int(in.A)
		if ci < 0 || ci >= len(pr.ta.prog.Methods) {
			return
		}
		callee := pr.ta.prog.Methods[ci]
		for k := 0; k < callee.NArgs; k++ {
			ho := pr.ta.heapOut[ci][k]
			if ho.isZero() {
				continue
			}
			tv := pr.substCallee(s, pc, ci, ho).or(pr.info.pcT[pc])
			pr.writeBucket(s, pr.valueOrigin(s, pc, callee.NArgs-1-k), tv)
		}
	}
}

// substCallee maps a taint symbolic over callee ci's parameters to one
// symbolic over THIS method's parameters, using the argument expressions
// at the call site (pc is the OpInvoke).
func (pr *taintProblem) substCallee(s *taintState, pc, ci int, tv taintVal) taintVal {
	callee := pr.ta.prog.Methods[ci]
	res := taintVal{bits: tv.bits}
	for k := 0; k < callee.NArgs; k++ {
		d := callee.NArgs - 1 - k
		if tv.deps&paramBit(k) != 0 {
			res = res.or(pr.valueTaint(s, pc, d))
		}
		if tv.hdeps&paramBit(k) != 0 {
			res = res.or(pr.valueTaint(s, pc, d)).or(pr.heapTaint(s, pc, d))
		}
	}
	return res
}

// solveWithControl runs the intra-method solve to fixpoint, interleaved
// with the control-taint computation: branch-condition taint is smeared
// over the branch's control-dependent blocks, the problem re-solved, until
// the (finite, monotone) pcT assignment stabilizes.
func (pr *taintProblem) solveWithControl() []State {
	cd := controlDeps(pr.info.cfg)
	if pr.info.inCatch {
		// Whether catch code runs at all is violation-dependent.
		all := pr.conservativeAll()
		for pc := range pr.info.pcT {
			pr.info.pcT[pc] = pr.info.pcT[pc].or(all)
		}
	}
	var states []State
	for {
		states = Solve(pr.info.cfg, pr)
		changed := false
		for b, blk := range pr.info.cfg.Blocks {
			if blk.End <= blk.Start {
				continue
			}
			tpc := blk.End - 1
			op := pr.info.cfg.Code[tpc].Op
			if op != jvm.OpJmpIf && op != jvm.OpJmpIfNot {
				continue
			}
			cond := pr.valueTaint(pr.stateAt(states, tpc), tpc, 0)
			if cond.isZero() {
				continue
			}
			for _, db := range cd[b] {
				dblk := pr.info.cfg.Blocks[db]
				for pc := dblk.Start; pc < dblk.End; pc++ {
					if nv := pr.info.pcT[pc].or(cond); nv != pr.info.pcT[pc] {
						pr.info.pcT[pc] = nv
						changed = true
					}
				}
			}
		}
		if !changed {
			return states
		}
	}
}

// stateAt replays the transfer from pc's block entry up to (not
// including) pc.
func (pr *taintProblem) stateAt(states []State, pc int) *taintState {
	b := pr.info.cfg.BlockOf(pc)
	s := states[b].Clone().(*taintState)
	for i := pr.info.cfg.Blocks[b].Start; i < pc; i++ {
		pr.step(s, i)
	}
	return s
}

// controlDeps computes, per block, the blocks control-dependent on its
// terminal conditional branch: blocks reachable from a successor that do
// not postdominate the branch. Blocks that cannot reach an exit are
// treated as postdominated by nothing, which over-approximates dependence
// (conservative for a may-taint).
func controlDeps(g *CFG) [][]int {
	n := len(g.Blocks)
	cd := make([][]int, n)
	if n == 0 {
		return cd
	}
	// Which blocks can reach an exit (a block with no successors).
	canExit := make([]bool, n)
	var work []int
	for i, b := range g.Blocks {
		if len(b.Succs) == 0 {
			canExit[i] = true
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range g.Blocks[b].Preds {
			if !canExit[p] {
				canExit[p] = true
				work = append(work, p)
			}
		}
	}
	// Postdominator sets by greatest fixpoint. Blocks that cannot reach
	// an exit are pinned to {self}: nothing is guaranteed to execute
	// after them.
	pdom := make([][]bool, n)
	for i := range pdom {
		pdom[i] = make([]bool, n)
		if len(g.Blocks[i].Succs) == 0 || !canExit[i] {
			pdom[i][i] = true
			continue
		}
		for j := range pdom[i] {
			pdom[i][j] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range pdom {
			if len(g.Blocks[i].Succs) == 0 || !canExit[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if !pdom[i][j] || j == i {
					continue
				}
				for _, s := range g.Blocks[i].Succs {
					if !pdom[s][j] {
						pdom[i][j] = false
						changed = true
						break
					}
				}
			}
		}
	}
	// reach[i]: forward closure over successors.
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		stack := []int{i}
		reach[i][i] = true
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.Blocks[b].Succs {
				if !reach[i][s] {
					reach[i][s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	for i, b := range g.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for j := 0; j < n; j++ {
			fromSucc := false
			for _, s := range b.Succs {
				if reach[s][j] {
					fromSucc = true
					break
				}
			}
			if !fromSucc {
				continue
			}
			if pdom[i][j] && j != i {
				continue // j runs no matter which way the branch goes
			}
			cd[i] = append(cd[i], j)
		}
	}
	return cd
}

// Rule identifiers (stable; documented in cmd/laminar-vet help).
const (
	RuleRobustDeclass  = "robust-declassification"
	RuleTransparentEnd = "transparent-endorsement"
	RuleImplicitFanout = "implicit-flow-fanout"
)

// scan analyzes one code array to its intra-method fixpoint and replays
// it, joining into the global tables; when emit is non-nil it also
// reports findings.
func (ta *taintAnalysis) scan(mi int, info *methodInfo, emit func(pc int, rule, msg string)) {
	if info == nil {
		return
	}
	m := ta.prog.Methods[mi]
	pr := &taintProblem{ta: ta, m: m, mi: mi, info: info}
	states := pr.solveWithControl()
	cd := controlDeps(info.cfg)
	for b := range info.cfg.Blocks {
		blk := info.cfg.Blocks[b]
		s := states[b].Clone().(*taintState)
		for pc := blk.Start; pc < blk.End; pc++ {
			ta.visit(pr, s, b, pc, cd, emit)
			pr.step(s, pc)
		}
		// Writes into parameter objects made on this path escape to the
		// caller.
		for k := range s.hparam {
			ta.joinHeapOut(mi, k, s.hparam[k])
		}
	}
}

// visit performs the per-pc global-table updates and (optionally) the
// rule checks, given the state just before pc executes.
func (ta *taintAnalysis) visit(pr *taintProblem, s *taintState, b, pc int, cd [][]int, emit func(pc int, rule, msg string)) {
	mi := pr.mi
	info := pr.info
	code := info.cfg.Code
	in := code[pc]
	switch in.Op {
	case jvm.OpGetField, jvm.OpArrayLen:
		// Dereferences of parameter objects inside (or reachable into)
		// declass/endorse sites define the site's input data.
		ta.noteSiteRead(pr, s, pc, 0)
	case jvm.OpALoad:
		ta.noteSiteRead(pr, s, pc, 1)
	case jvm.OpReturnVal:
		ta.joinRet(mi, pr.valueTaint(s, pc, 0).or(info.pcT[pc]))
		ta.joinRetHeap(mi, pr.heapTaint(s, pc, 0).or(info.pcT[pc]))
	case jvm.OpPutField:
		// A write through a reference of unknown provenance may land in an
		// object reachable from a static (published earlier); fold it into
		// every slot readers could observe it through.
		if pr.valueOrigin(s, pc, 1) == originUnknown {
			ta.joinAllStatics(ta.resolve(mi, pr.storedTaint(s, pc, 0)))
		}
	case jvm.OpAStore:
		if pr.valueOrigin(s, pc, 2) == originUnknown {
			ta.joinAllStatics(ta.resolve(mi, pr.storedTaint(s, pc, 0).or(pr.valueTaint(s, pc, 1))))
		}
	case jvm.OpPutStatic:
		full := pr.storedTaint(s, pc, 0) // value + control + known heap contents
		vb := ta.resolve(mi, full)
		laundered := vb
		if ta.inDeclCtx[mi] {
			laundered &^= TaintSecret // sanctioned by the declassifier
		}
		if ta.inEndCtx[mi] {
			laundered &^= TaintLow // vouched for by the endorser
		}
		ta.joinStatic(in.A, laundered)
		if ta.inDeclCtx[mi] {
			ta.joinMask(&ta.declassIn[mi], full.deps|full.hdeps)
		}
		if ta.inEndCtx[mi] {
			ta.joinMask(&ta.endorseIn[mi], full.deps|full.hdeps)
		}
		if emit == nil {
			return
		}
		if ta.inDeclCtx[mi] && vb&TaintLow != 0 {
			emit(pc, RuleRobustDeclass,
				fmt.Sprintf("declassified publication to static slot %d depends on low-integrity data", in.A))
		}
		if ta.inEndCtx[mi] && vb&TaintSecret != 0 {
			emit(pc, RuleTransparentEnd,
				fmt.Sprintf("endorsed publication to static slot %d depends on secret data", in.A))
		}
		if !ta.inDeclCtx[mi] && !ta.inEndCtx[mi] {
			// Control taint is reported at the guarding branch
			// (implicit-flow-fanout there); here only the value itself
			// — except in catch blocks, where execution is itself a
			// violation-dependent channel.
			dataOnly := pr.valueTaint(s, pc, 0).or(pr.heapTaint(s, pc, 0))
			if info.inCatch {
				dataOnly = dataOnly.or(info.pcT[pc])
			}
			if ta.resolve(mi, dataOnly)&TaintSecret != 0 {
				emit(pc, RuleImplicitFanout,
					fmt.Sprintf("secret-derived value flows to public static slot %d outside any declassifier", in.A))
			}
		}
	case jvm.OpJmpIf, jvm.OpJmpIfNot:
		if emit == nil {
			return
		}
		if ta.inDeclCtx[mi] || ta.inEndCtx[mi] {
			// Inside a site's context, secret-guarded publications are the
			// site's business (robust/transparent rules cover the bad
			// cases via control taint on the publication itself).
			return
		}
		cond := ta.resolve(mi, pr.valueTaint(s, pc, 0))
		if cond&TaintSecret == 0 {
			return
		}
		// Does the branch select between distinguishable public effects?
		for _, db := range cd[b] {
			dblk := info.cfg.Blocks[db]
			for dpc := dblk.Start; dpc < dblk.End; dpc++ {
				din := code[dpc]
				pub := din.Op == jvm.OpPutStatic
				if din.Op == jvm.OpInvoke {
					if ci := int(din.A); ci >= 0 && ci < len(ta.hasPub) && ta.hasPub[ci] {
						pub = true
					}
				}
				if pub {
					emit(pc, RuleImplicitFanout,
						"branch on secret data selects between distinguishable public effects")
					return
				}
			}
		}
	case jvm.OpInvoke:
		ci := int(in.A)
		if ci < 0 || ci >= len(ta.prog.Methods) {
			return
		}
		callee := ta.prog.Methods[ci]
		pcT := info.pcT[pc]
		pcb := ta.resolve(mi, pcT)
		// Propagate entry taint and the site-input masks.
		for k := 0; k < callee.NArgs; k++ {
			d := callee.NArgs - 1 - k
			av := pr.valueTaint(s, pc, d)
			ah := pr.heapTaint(s, pc, d)
			// Entry taint is data-only: a call-site guard taints the
			// callee's EXECUTION, not its arguments, and is reported
			// here by the guard rules below.
			ta.joinEntry(ci, k, ta.resolve(mi, av), ta.resolve(mi, ah))
			if ta.declassIn[ci]&paramBit(k) != 0 {
				ta.joinMask(&ta.declassIn[mi], av.deps|av.hdeps|ah.deps|ah.hdeps)
			}
			if ta.endorseIn[ci]&paramBit(k) != 0 {
				ta.joinMask(&ta.endorseIn[mi], av.deps|av.hdeps|ah.deps|ah.hdeps)
			}
			if emit != nil {
				ab := ta.resolve(mi, av.or(ah))
				if ta.declassIn[ci]&paramBit(k) != 0 && ab&TaintLow != 0 {
					emit(pc, RuleRobustDeclass,
						fmt.Sprintf("low-integrity data flows into the declassification site reached via %s (argument %d)", callee.Name, k))
				}
				if ta.endorseIn[ci]&paramBit(k) != 0 && ab&TaintSecret != 0 {
					emit(pc, RuleTransparentEnd,
						fmt.Sprintf("secret data flows into the endorsement site reached via %s (argument %d)", callee.Name, k))
				}
			}
		}
		// A guarded call whose callee enters a site: the guard taints the
		// site's scope. Record the dependence for callers, then report.
		if ta.reachDecl[ci] {
			ta.joinMask(&ta.declassIn[mi], pcT.deps|pcT.hdeps)
		}
		if ta.reachEnd[ci] {
			ta.joinMask(&ta.endorseIn[mi], pcT.deps|pcT.hdeps)
		}
		if emit == nil {
			return
		}
		if pcb&TaintLow != 0 {
			switch {
			case ta.isDecl[ci]:
				emit(pc, RuleRobustDeclass,
					fmt.Sprintf("entry into declassifier %s is guarded by low-integrity data", callee.Name))
			case ta.reachDecl[ci]:
				emit(pc, RuleRobustDeclass,
					fmt.Sprintf("call to %s, which enters a declassifier, is guarded by low-integrity data", callee.Name))
			}
			if ta.inDeclCtx[mi] && ta.hasPub[ci] && !ta.isDecl[ci] && !ta.reachDecl[ci] {
				emit(pc, RuleRobustDeclass,
					fmt.Sprintf("publication inside a declassification context (call to %s) is guarded by low-integrity data", callee.Name))
			}
		}
		if pcb&TaintSecret != 0 {
			switch {
			case ta.isEnd[ci]:
				emit(pc, RuleTransparentEnd,
					fmt.Sprintf("entry into endorser %s is guarded by secret data", callee.Name))
			case ta.reachEnd[ci]:
				emit(pc, RuleTransparentEnd,
					fmt.Sprintf("call to %s, which enters an endorser, is guarded by secret data", callee.Name))
			}
			if ta.inEndCtx[mi] && ta.hasPub[ci] && !ta.isEnd[ci] && !ta.reachEnd[ci] {
				emit(pc, RuleTransparentEnd,
					fmt.Sprintf("publication inside an endorsement context (call to %s) is guarded by secret data", callee.Name))
			}
		}
	}
}

// noteSiteRead marks a dereference of a parameter object: inside a
// declass/endorse context that parameter's data is site input.
func (ta *taintAnalysis) noteSiteRead(pr *taintProblem, s *taintState, pc, depth int) {
	mi := pr.mi
	if !ta.inDeclCtx[mi] && !ta.inEndCtx[mi] {
		return
	}
	var mask uint32
	switch o := pr.valueOrigin(s, pc, depth); {
	case o >= 0:
		mask = paramBit(int(o))
	case o == originUnknown:
		mask = paramMask(pr.m.NArgs)
	default:
		return // fresh or int: not caller data
	}
	if ta.inDeclCtx[mi] {
		ta.joinMask(&ta.declassIn[mi], mask)
	}
	if ta.inEndCtx[mi] {
		ta.joinMask(&ta.endorseIn[mi], mask)
	}
}

// LintTaint runs the interprocedural taint analysis and reports
// robust-declassification, transparent-endorsement and
// implicit-flow-fanout findings. It is separate from Lint (whose rules
// are structural region-safety checks); laminar-vet runs both.
func LintTaint(p *jvm.Program) []Finding {
	ta := newTaintAnalysis(p)
	// Global fixpoint: iterate methods bottom-up (callee summaries first,
	// for fast convergence) until no table changes. The tables only grow
	// and all lattices are finite, so this terminates.
	for rounds := 0; ; rounds++ {
		ta.changed = false
		for _, scc := range ta.graph.SCCs {
			for _, mi := range scc {
				ta.scan(mi, ta.body[mi], nil)
				ta.scan(mi, ta.catch[mi], nil)
			}
		}
		if !ta.changed || rounds > 4*len(p.Methods)+64 {
			break
		}
	}
	var out []Finding
	seen := make(map[Finding]bool)
	for mi, m := range p.Methods {
		for _, part := range []*methodInfo{ta.body[mi], ta.catch[mi]} {
			if part == nil {
				continue
			}
			info := part
			ta.scan(mi, info, func(pc int, rule, msg string) {
				f := Finding{Method: m.Name, PC: pc, InCatch: info.inCatch, Rule: rule, Msg: msg}
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		if out[i].InCatch != out[j].InCatch {
			return !out[i].InCatch
		}
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
