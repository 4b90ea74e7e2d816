package jvm

// This file implements the redundant-barrier-elimination optimization of
// §5.1: "We implement an intraprocedural, flow-sensitive data-flow
// analysis that identifies redundant barriers and removes them. A read
// (or write) barrier is redundant if the object has been read (written),
// or if the object was allocated, along every incoming path."
//
// The analysis tracks, per local-variable slot, whether the object
// currently held by the slot has already passed a read check, a write
// check, or was allocated in this method (allocation implies both: a
// fresh object carries the region's own labels). Facts meet by
// intersection at join points, giving the "along every incoming path"
// semantics. The pass is a forward Problem solved by Solve over BuildCFG's
// graph (dataflow.go), the same framework the analysis package runs its
// summaries, lint and taint analyses on. Object operands are traced to
// their producing instruction by Program.StackSource within the basic
// block; operands that cannot be traced to a local load or a fresh
// allocation conservatively keep their barriers.
//
// Soundness rests on two Laminar invariants: object labels are immutable
// (§4.5) and a security region's labels cannot change during its execution
// (§4.4), so a check that succeeded once holds for the rest of the region.
// Calls do not invalidate facts — a nested region entered by a callee is
// popped again before control returns.
//
// When an InterprocResult is supplied (CompileOptions.Interproc), the same
// pass additionally consumes whole-program summaries from
// internal/jvm/analysis:
//
//   - entry facts seed parameter slots with checks proven at every call
//     site, so callees skip re-checking arguments;
//   - an invoke transfers the callee's Ensures facts onto the argument's
//     source slots, so callers skip re-checking objects a callee checked;
//   - a value stored from an invoke inherits the callee's Return facts
//     (factory methods returning fresh allocations);
//   - backwards stack tracing walks through calls, since a call never
//     touches stack values below its arguments.

// localFacts is the elimination pass's lattice element: the fact bits of
// the object each local slot holds, plus whether a static read or write
// check already ran in this region.
type localFacts struct {
	bits    []uint8
	staticR bool // a static-read check already ran in this region
	staticW bool
}

// Clone copies the facts.
func (f *localFacts) Clone() State {
	out := &localFacts{bits: make([]uint8, len(f.bits)), staticR: f.staticR, staticW: f.staticW}
	copy(out.bits, f.bits)
	return out
}

// Merge intersects other into f; reports whether f changed.
func (f *localFacts) Merge(other State) bool {
	o := other.(*localFacts)
	changed := false
	for i := range f.bits {
		nb := f.bits[i] & o.bits[i]
		if nb != f.bits[i] {
			f.bits[i] = nb
			changed = true
		}
	}
	if f.staticR && !o.staticR {
		f.staticR = false
		changed = true
	}
	if f.staticW && !o.staticW {
		f.staticW = false
		changed = true
	}
	return changed
}

// optContext bundles what the elimination pass knows beyond the method's
// own code: the program (for callee arity when tracing through calls) and
// the attached interprocedural summaries. A nil ip degrades to the purely
// intraprocedural §5.1 pass.
type optContext struct {
	p  *Program
	ip *InterprocResult
	// note, when non-nil, receives a human-readable reason each time the
	// final pass proves a barrier site redundant (laminar-vet explain).
	note func(pc int, reason string)
}

func (oc optContext) explain(pc int, reason string) {
	if oc.note != nil {
		oc.note(pc, reason)
	}
}

// elimination is the §5.1 pass as a forward must-problem over one code
// array: the boundary holds the caller-proven entry facts, every other
// block starts from all facts, and facts meet by intersection. need is
// nil while Solve runs; the final pass sets it to mark redundant sites.
type elimination struct {
	optContext
	g      *CFG
	nLocal int
	entry  []uint8
	need   *barrierNeed
}

func (e *elimination) Direction() Direction { return Forward }

func (e *elimination) Boundary() State {
	f := &localFacts{bits: make([]uint8, e.nLocal)}
	copy(f.bits, e.entry)
	return f
}

func (e *elimination) Top() State {
	f := &localFacts{bits: make([]uint8, e.nLocal), staticR: true, staticW: true}
	for s := range f.bits {
		f.bits[s] = FactAll
	}
	return f
}

// src traces the stack value at depth just before pc to its producer.
// Values are traced across calls only with interprocedural summaries.
func (e *elimination) src(pc, depth int) int {
	return e.p.StackSource(e.g, pc, depth, e.ip != nil)
}

// eliminateRedundant computes which barriers must stay. need starts as the
// all-barriers set from allBarriers. entry seeds fact bits for the leading
// local slots (parameters) at method entry; nil means no entry facts.
func eliminateRedundant(oc optContext, code []Instr, need barrierNeed, entry []uint8) barrierNeed {
	e := &elimination{optContext: oc, g: BuildCFG(code), nLocal: maxLocalSlot(code) + 1, entry: entry}
	if len(entry) > e.nLocal {
		e.nLocal = len(entry)
	}
	states := Solve(e.g, e)
	// Final pass: with stable entry facts, mark redundant barriers.
	e.need = &need
	for bi := range e.g.Blocks {
		e.Transfer(bi, states[bi])
	}
	return need
}

// calleeEnsures returns the interprocedural summary facts for a callee's
// parameter, or 0 without summaries.
func (oc optContext) calleeEnsures(calleeIdx int, param int) uint8 {
	if oc.ip == nil || calleeIdx >= len(oc.ip.Ensures) {
		return 0
	}
	e := oc.ip.Ensures[calleeIdx]
	if param >= len(e) {
		return 0
	}
	return e[param]
}

// calleeReturn returns the fact bits of a callee's return value, or 0.
func (oc optContext) calleeReturn(calleeIdx int) uint8 {
	if oc.ip == nil || calleeIdx >= len(oc.ip.Return) {
		return 0
	}
	return oc.ip.Return[calleeIdx]
}

// Transfer runs the transfer function over block b. When e.need is set,
// barriers proven redundant are cleared in it.
func (e *elimination) Transfer(b int, s State) {
	f, code, need := s.(*localFacts), e.g.Code, e.need
	for pc := e.g.Blocks[b].Start; pc < e.g.Blocks[b].End; pc++ {
		in := code[pc]
		switch {
		case accessDepth(in.Op) >= 0:
			src := e.src(pc, accessDepth(in.Op))
			bit := FactRead
			if isWrite(in.Op) {
				bit = FactWrite
			}
			switch {
			case src >= 0 && (code[src].Op == OpNew || code[src].Op == OpNewArray):
				// Freshly allocated on this path: always redundant.
				if need != nil {
					need.access[pc] = false
					e.explain(pc, "object freshly allocated in this method; a fresh object carries the context's own labels")
				}
			case src >= 0 && code[src].Op == OpLoad:
				slot := int(code[src].A)
				if slot < len(f.bits) {
					if f.bits[slot]&bit != 0 {
						if need != nil {
							need.access[pc] = false
							e.explain(pc, "object in local slot passed the same check on every incoming path")
						}
					}
					f.bits[slot] |= bit
				}
			case src >= 0 && code[src].Op == OpInvoke:
				// The accessed object is a callee's return value.
				if e.calleeReturn(int(code[src].A))&bit != 0 && need != nil {
					need.access[pc] = false
					e.explain(pc, "callee's Return summary proves its result checked or freshly allocated")
				}
			case src >= 0 && code[src].Op == OpDup:
				// Conservatively keep the barrier; no fact update.
			}
		case in.Op == OpGetStatic:
			if f.staticR && need != nil {
				need.static[pc] = false
				e.explain(pc, "a checked static read already ran on every incoming path")
			}
			f.staticR = true
		case in.Op == OpPutStatic:
			if f.staticW && need != nil {
				need.static[pc] = false
				e.explain(pc, "a checked static write already ran on every incoming path")
			}
			f.staticW = true
		case in.Op == OpInvoke && e.ip != nil:
			// Callee summaries: the callee checked these arguments on
			// every path, so the source slots gain the facts for the rest
			// of this activation (the callee ran in this activation's
			// context — secure callees publish empty summaries).
			callee := e.p.Methods[in.A]
			if idx := int(in.A); idx < len(e.ip.EnsuresStatic) {
				if bits := e.ip.EnsuresStatic[idx]; bits != 0 {
					// The callee ran checked static accesses in this same
					// region on every path, so our later ones are covered.
					f.staticR = f.staticR || bits&FactRead != 0
					f.staticW = f.staticW || bits&FactWrite != 0
				}
			}
			for k := 0; k < callee.NArgs; k++ {
				bits := e.calleeEnsures(int(in.A), k)
				if bits == 0 {
					continue
				}
				// Argument k sits at depth NArgs-1-k (last argument on
				// top) just before the invoke executes.
				src := e.src(pc, callee.NArgs-1-k)
				if src >= 0 && code[src].Op == OpLoad {
					if slot := int(code[src].A); slot < len(f.bits) {
						f.bits[slot] |= bits
					}
				}
			}
		case in.Op == OpStore:
			slot := int(in.A)
			if slot < len(f.bits) {
				// What is being stored? A fresh allocation transfers
				// full facts; anything else clears them.
				src := e.src(pc, 0)
				if src >= 0 && (code[src].Op == OpNew || code[src].Op == OpNewArray) {
					f.bits[slot] = FactAll
				} else if src >= 0 && code[src].Op == OpLoad && int(code[src].A) < len(f.bits) {
					f.bits[slot] = f.bits[int(code[src].A)]
				} else if src >= 0 && code[src].Op == OpInvoke {
					f.bits[slot] = e.calleeReturn(int(code[src].A))
				} else {
					f.bits[slot] = 0
				}
			}
		}
	}
}

func maxLocalSlot(code []Instr) int {
	max := 0
	for _, in := range code {
		if (in.Op == OpLoad || in.Op == OpStore) && int(in.A) > max {
			max = int(in.A)
		}
	}
	return max
}
