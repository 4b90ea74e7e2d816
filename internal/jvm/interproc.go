package jvm

// This file is the compiler's interface to the whole-program analysis in
// internal/jvm/analysis. The analysis computes the summary table with
// the checked-facts problem (facts.go) over a verified program's
// *source* bytecode and attaches it with SetInterproc; compilation with
// CompileOptions.Interproc then reads the same table to seed entry
// facts, transfer facts across calls, and skip barrier insertion for
// methods proven barrier-free.
//
// The package split keeps the dependency one-way: analysis imports jvm,
// never the reverse, so the problem, the table and the opcode helpers
// below live here.

// Summary is one method's interprocedural contract, one row of the
// summary table indexed by method table slot. Security-region methods
// are opaque boundaries: they publish no Ensures/Return/Statics facts
// and receive no EntryChecked facts, because checks inside a region run
// against the region's labels, not the caller's (§4.3.2/§4.4).
type Summary struct {
	// Ensures[k] holds the fact bits the method establishes for the
	// object passed as parameter k on every path to every normal return.
	// Callers gain these facts for the argument after an invoke (label
	// immutability §4.5 plus region-label stability §4.4 make a passed
	// check permanent for the rest of the activation).
	Ensures []uint8
	// Return holds the fact bits carried by the return value on every
	// path (FactAll for factories returning fresh allocations).
	Return uint8
	// Statics holds FactRead/FactWrite when the method performs a
	// checked static read/write on every path to every normal return,
	// so a caller's later static barrier of the same kind is redundant
	// within the same region.
	Statics uint8
	// EntryChecked[k] holds the fact bits proven for argument k at
	// every OpInvoke site of the method. The invoke-reached variant
	// starts its dataflow with these facts; host-entry calls
	// (Machine.Call) compile a separate conservative variant because
	// host arguments never passed any barrier.
	EntryChecked []uint8
	// BarrierFree marks a method whose elimination keeps no
	// read/write/static barrier even with no entry facts. The compiler
	// skips the elimination pass and inserts only allocation-labeling
	// barriers for it.
	BarrierFree bool
}

// SetInterproc attaches the summary table, one row per method in
// p.Methods (internal/jvm/analysis.Attach builds it).
func (p *Program) SetInterproc(sums []Summary) { p.interproc = sums }

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
// and whatever summaries are attached, and reports the verdict for every
// access/static barrier site. This is the same pass the compiler runs,
// so explain output cannot drift from compilation.
func (p *Program) BarrierDecisions(m *Method, entry []uint8) []BarrierDecision {
	var out []BarrierDecision
	p.checkBarriers(p.interproc, m.Code, entry, func(pc int, reason string) {
		op := m.Code[pc].Op
		d := BarrierDecision{PC: pc, Op: op, Kind: siteKind(op), Kept: reason == "", Reason: reason}
		if d.Kept {
			d.Reason = "operand not provably checked on every incoming path"
		}
		out = append(out, d)
	})
	return out
}

// RemainingBarriers counts the access/static barrier sites the
// elimination pass keeps for m's source code (and catch block) under the
// given entry facts and the attached summaries. The analysis package
// proves methods barrier-free with it (conservative relative to
// compilation, which peepholes first and can only delete further sites).
func (p *Program) RemainingBarriers(m *Method, entry []uint8) int {
	n := 0
	count := func(_ int, reason string) {
		if reason == "" {
			n++
		}
	}
	p.checkBarriers(p.interproc, m.Code, entry, count)
	if m.Secure != nil && m.Secure.Catch != nil {
		p.checkBarriers(p.interproc, m.Secure.Catch, nil, count)
	}
	return n
}

// --- exported opcode model, shared with internal/jvm/analysis ---

// IsBarrier reports whether the opcode is compiler-inserted.
func (o Op) IsBarrier() bool { return o.isBarrier() }

// AccessDepth returns the stack depth of a heap-access opcode's object
// operand at barrier time, or -1 for non-access opcodes.
func (o Op) AccessDepth() int { return accessDepth(o) }

// ReturnsValue reports whether the method returns a value.
func (m *Method) ReturnsValue() bool { return m.returnsValue() }
