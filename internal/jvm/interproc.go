package jvm

// This file is the compiler's interface to the whole-program analysis in
// internal/jvm/analysis. The analysis package computes an InterprocResult
// from a verified program's *source* bytecode and attaches it with
// SetInterproc; compilation with CompileOptions.Interproc then consults it
// to (a) seed the intraprocedural elimination pass with facts proven at
// method entry, (b) transfer facts across and out of calls using callee
// summaries, and (c) skip barrier insertion entirely for methods proven
// barrier-free.
//
// The package split keeps the dependency one-way: analysis imports jvm,
// never the reverse. The exported helpers below (AccessDepth, IsWrite, …),
// Op.StackEffect and the dataflow framework in dataflow.go exist so the
// analysis package shares the compiler's opcode model, CFG, solver and
// stack tracer instead of re-deriving them.

// Fact bits tracked per object by the barrier dataflow analyses, both the
// intraprocedural pass in opt.go and the interprocedural summaries. A bit
// is set when the object has passed the corresponding check (or was
// freshly allocated, which implies both: a fresh object carries the
// allocating context's own labels).
const (
	FactRead  uint8 = 1 << iota // object has passed a read check
	FactWrite                   // object has passed a write check
)

// FactAll is the top of the fact lattice.
const FactAll = FactRead | FactWrite

// InterprocResult carries whole-program dataflow facts, indexed by method
// table slot. All slices are parallel to Program.Methods. Security-region
// methods are opaque boundaries: they publish no Ensures/Return facts and
// receive no EntryChecked facts, because checks inside a region run
// against the region's labels, not the caller's (§4.3.2/§4.4).
type InterprocResult struct {
	// Ensures[mi][k] holds the fact bits method mi establishes for the
	// object passed as parameter k on every path to every normal return.
	// Callers gain these facts for the argument's source slot after an
	// invoke (label immutability §4.5 plus region-label stability §4.4
	// make a passed check permanent for the rest of the activation).
	Ensures [][]uint8
	// Return[mi] holds the fact bits carried by mi's return value on
	// every path (typically FactAll for factory methods returning fresh
	// allocations).
	Return []uint8
	// EntryChecked[mi][k] holds the fact bits proven for argument k at
	// EVERY OpInvoke call site of mi in the program. The invoke-reached
	// variant of mi starts its dataflow with these facts and may drop
	// parameter re-checks; host-entry calls (Machine.Call) compile a
	// separate conservative variant because host arguments never passed
	// any barrier.
	EntryChecked [][]uint8
	// EnsuresStatic[mi] holds FactRead/FactWrite bits indicating that mi
	// performs a checked static read/write on every path to every normal
	// return, so a caller's later static barrier of the same kind is
	// redundant within the same region.
	EnsuresStatic []uint8
	// BarrierFree[mi] marks methods proven to need no read/write/static
	// check barriers in any context even with conservative entry facts.
	// The compiler skips the elimination pass and inserts only
	// allocation-labeling barriers for them.
	BarrierFree []bool
}

// SetInterproc attaches whole-program analysis results. The result must
// have been computed for exactly this program's current method table; the
// caller (internal/jvm/analysis.Attach) guarantees the slices are sized to
// len(p.Methods).
func (p *Program) SetInterproc(r *InterprocResult) { p.interproc = r }

// Interproc returns the attached analysis results, or nil.
func (p *Program) Interproc() *InterprocResult { return p.interproc }

// BarrierDecision is the elimination pass's verdict for one barrier site
// in a method's source code, for laminar-vet's explain subcommand.
type BarrierDecision struct {
	PC     int
	Op     Op
	Kind   string // access-read, access-write, static-read, static-write
	Kept   bool
	Reason string
}

// siteKind names a barrier site.
func siteKind(op Op) string {
	switch {
	case op == OpGetStatic:
		return "static-read"
	case op == OpPutStatic:
		return "static-write"
	case isWrite(op):
		return "access-write"
	default:
		return "access-read"
	}
}

// BarrierDecisions runs the elimination pass over m's source code (no
// peephole, so PCs match the source listing) with the given entry facts
// and whatever interprocedural summaries are attached, and reports the
// verdict for every access/static barrier site. This is the same dataflow
// the compiler runs, so explain output cannot drift from compilation.
func (p *Program) BarrierDecisions(m *Method, entry []uint8) []BarrierDecision {
	need := allBarriers(m.Code)
	reasons := make(map[int]string)
	oc := optContext{p: p, ip: p.interproc, note: func(pc int, reason string) { reasons[pc] = reason }}
	need = eliminateRedundant(oc, m.Code, need, entry)
	var out []BarrierDecision
	for pc, in := range m.Code {
		isAccess := accessDepth(in.Op) >= 0
		isStatic := in.Op == OpGetStatic || in.Op == OpPutStatic
		if !isAccess && !isStatic {
			continue
		}
		kept := (isAccess && need.access[pc]) || (isStatic && need.static[pc])
		reason := reasons[pc]
		if reason == "" {
			if kept {
				reason = "operand not provably checked on every incoming path"
			} else {
				reason = "redundant"
			}
		}
		out = append(out, BarrierDecision{PC: pc, Op: in.Op, Kind: siteKind(in.Op), Kept: kept, Reason: reason})
	}
	return out
}

// RemainingBarriers counts the access/static barrier sites the
// elimination pass keeps for m's source code under the given entry facts
// and the attached summaries. The analysis package uses it to prove
// methods barrier-free with exactly the compiler's own elimination logic
// (conservative relative to compilation, which peepholes first and can
// only delete further sites).
func (p *Program) RemainingBarriers(m *Method, entry []uint8) int {
	oc := optContext{p: p, ip: p.interproc}
	need := eliminateRedundant(oc, m.Code, allBarriers(m.Code), entry)
	n := countBarriers(need)
	if m.Secure != nil && m.Secure.Catch != nil {
		catchNeed := eliminateRedundant(oc, m.Secure.Catch, allBarriers(m.Secure.Catch), nil)
		n += countBarriers(catchNeed)
	}
	return n
}

// --- exported opcode model, shared with internal/jvm/analysis ---

// IsBarrier reports whether the opcode is compiler-inserted.
func (o Op) IsBarrier() bool { return o.isBarrier() }

// AccessDepth returns the stack depth of a heap-access opcode's object
// operand at barrier time, or -1 for non-access opcodes.
func (o Op) AccessDepth() int { return accessDepth(o) }

// IsWrite reports whether the opcode is a heap write access.
func (o Op) IsWrite() bool { return isWrite(o) }

// ReturnsValue reports whether the method returns a value.
func (m *Method) ReturnsValue() bool { return m.returnsValue() }
