package jvm

// The dataflow framework every MiniJVM analysis runs on: a control-flow
// graph, a generic forward/backward worklist solver, and a backwards
// stack tracer. The checked-facts problem (facts.go) behind the
// compiler's barrier elimination, the summaries and the region lint,
// and the taint problem in internal/jvm/analysis all run on this one
// copy.

// Block is a basic block: the half-open instruction range [Start, End)
// plus its edges, as block indices.
type Block struct {
	Start, End int
	Succs      []int
	Preds      []int
}

// CFG is the control-flow graph of one code array.
type CFG struct {
	Code   []Instr
	Blocks []Block
	// JumpTarget marks every pc (up to len(Code)) some branch lands on;
	// the stack tracer stops at them because values may arrive from
	// another path.
	JumpTarget []bool
	blockOf    []int // pc -> block index
}

// BuildCFG splits code into basic blocks and links edges. Leaders are pc
// 0, branch targets, and the instruction after a branch or return.
// Verified code has in-range targets; BuildCFG tolerates out-of-range
// ones by dropping the edge (lint runs on not-yet-verified programs).
func BuildCFG(code []Instr) *CFG {
	g := &CFG{Code: code, JumpTarget: jumpTargets(code), blockOf: make([]int, len(code))}
	start := 0
	for pc := 1; pc <= len(code); pc++ {
		prev := code[pc-1].Op
		if pc == len(code) || g.JumpTarget[pc] || prev.isJump() || prev == OpReturn || prev == OpReturnVal {
			for i := start; i < pc; i++ {
				g.blockOf[i] = len(g.Blocks)
			}
			g.Blocks = append(g.Blocks, Block{Start: start, End: pc})
			start = pc
		}
	}
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := code[b.End-1]
		add := func(pc int) {
			if pc < 0 || pc >= len(code) {
				return
			}
			si := g.blockOf[pc]
			b.Succs = append(b.Succs, si)
			g.Blocks[si].Preds = append(g.Blocks[si].Preds, bi)
		}
		switch {
		case last.Op == OpReturn || last.Op == OpReturnVal:
		case last.Op == OpJmp:
			add(int(last.A))
		case last.Op == OpJmpIf || last.Op == OpJmpIfNot:
			add(int(last.A))
			add(b.End)
		default:
			add(b.End)
		}
	}
	return g
}

// BlockOf maps a pc to its block index.
func (g *CFG) BlockOf(pc int) int { return g.blockOf[pc] }

// jumpTargets marks every pc in [0, len(code)] that some branch lands on.
func jumpTargets(code []Instr) []bool {
	t := make([]bool, len(code)+1)
	for _, in := range code {
		if in.Op.isJump() && int(in.A) >= 0 && int(in.A) <= len(code) {
			t[in.A] = true
		}
	}
	return t
}

// Direction selects the order facts flow through the CFG.
type Direction int

const (
	Forward  Direction = iota // facts flow from entry toward returns
	Backward                  // facts flow from returns toward entry
)

// State is one lattice element. The framework is agnostic about whether
// Merge is a meet (intersection, for must-facts like "checked on every
// path") or a join (union, for may-facts like "a return is reachable");
// the client picks by choosing Top and Merge consistently.
type State interface {
	Clone() State
	// Merge combines other into the receiver and reports whether the
	// receiver changed.
	Merge(other State) bool
}

// Problem is a dataflow problem instance over one CFG.
type Problem interface {
	Direction() Direction
	// Boundary is the state at the entry block (Forward) or at every
	// exit block (Backward).
	Boundary() State
	// Top is the optimistic initial state for all other blocks.
	Top() State
	// Transfer mutates s through block b, in direction order.
	Transfer(b int, s State)
}

// Solve runs the worklist algorithm to fixpoint and returns the per-block
// input states: the state at block entry for Forward problems, at block
// exit for Backward ones. Blocks unreachable in the chosen direction keep
// Top. For a monotone transfer function the result is the maximal
// fixpoint, whatever order the worklist visits blocks in.
func Solve(g *CFG, p Problem) []State {
	n := len(g.Blocks)
	in := make([]State, n)
	for i := range in {
		in[i] = p.Top()
	}
	backward := p.Direction() == Backward
	if backward {
		for i, b := range g.Blocks {
			if len(b.Succs) == 0 {
				in[i] = p.Boundary()
			}
		}
	} else if n > 0 {
		in[0] = p.Boundary()
	}

	// Worklist of block indices, seeded with every block so transfer
	// functions run at least once everywhere.
	work := make([]int, n)
	queued := make([]bool, n)
	for i := range work {
		work[i] = i
		queued[i] = true
	}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		queued[bi] = false
		out := in[bi].Clone()
		p.Transfer(bi, out)
		next := g.Blocks[bi].Succs
		if backward {
			next = g.Blocks[bi].Preds
		}
		for _, si := range next {
			if in[si].Merge(out) && !queued[si] {
				work = append(work, si)
				queued[si] = true
			}
		}
	}
	return in
}

// StackSource walks backwards from pc to find the instruction that
// produced the stack value at the given depth (0 = the value on top just
// before g.Code[pc] executes) and returns its pc, or -1 when unknown. The
// walk stays within the basic block: it stops at branches, returns and
// jump targets. With throughCalls it continues through OpInvoke for
// values below the call's arguments (a call cannot touch them) and
// reports the invoke itself as the producer of its return value; without
// it an invoke ends the walk. An invoke of an undefined method always
// ends the walk (lint runs on unverified programs).
func (p *Program) StackSource(g *CFG, pc, depth int, throughCalls bool) int {
	want := depth
	for i := pc - 1; i >= 0; i-- {
		in := g.Code[i]
		if in.Op.isJump() || in.Op == OpReturn || in.Op == OpReturnVal || g.JumpTarget[i+1] {
			return -1
		}
		pops, pushes, ok := p.effect(in)
		if !ok || (in.Op == OpInvoke && !throughCalls) {
			return -1
		}
		if pushes > want {
			return i
		}
		want = want - pushes + pops
	}
	return -1
}
