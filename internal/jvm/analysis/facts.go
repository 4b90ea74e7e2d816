package analysis

import "laminar/internal/jvm"

// The checked-facts problem: a forward must-analysis tracking, per local
// slot, which barrier checks the object currently held by the slot has
// already passed (or would trivially pass, for fresh allocations), plus an
// aliasing origin so checks on a copied reference credit the original
// argument object. It is the interprocedural generalization of the
// intraprocedural pass in jvm/opt.go and uses the same fact bits
// (jvm.FactRead / jvm.FactWrite).
//
// Soundness leans on the same two Laminar invariants as the compiler's
// pass: object labels are immutable (§4.5) and a region's labels are
// stable while it executes (§4.4), so within one activation a check that
// succeeded once succeeds forever. Facts mean "a check of this kind on
// this object in the current context is guaranteed to succeed" — they are
// established both by barriers that actually execute and by freshness,
// which is why compile-time elimination of a dominated barrier does not
// invalidate them.

// origin sentinels; values >= 0 name the parameter whose object the slot
// holds.
const (
	originTop     = -2 // optimistic: not yet constrained by any path
	originUnknown = -1
	originFresh   = -3 // object allocated in this activation
)

// factState is the per-program-point lattice element.
type factState struct {
	slots []uint8 // fact bits for the object each local slot holds
	orig  []int16 // what each slot holds: param index, fresh, or unknown
	args  []uint8 // facts established for each ORIGINAL argument object
	stat  uint8   // FactRead/FactWrite: a checked static access ran
}

func newFactState(nLocal, nArgs int) *factState {
	return &factState{
		slots: make([]uint8, nLocal),
		orig:  make([]int16, nLocal),
		args:  make([]uint8, nArgs),
	}
}

func (s *factState) Clone() jvm.State {
	c := newFactState(len(s.slots), len(s.args))
	copy(c.slots, s.slots)
	copy(c.orig, s.orig)
	copy(c.args, s.args)
	c.stat = s.stat
	return c
}

// Merge intersects facts (must-analysis). Origins merge as: top absorbs,
// equal survives, conflict decays to unknown.
func (s *factState) Merge(other jvm.State) bool {
	o := other.(*factState)
	changed := false
	for i := range s.slots {
		if nb := s.slots[i] & o.slots[i]; nb != s.slots[i] {
			s.slots[i] = nb
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
	for i := range s.args {
		if nb := s.args[i] & o.args[i]; nb != s.args[i] {
			s.args[i] = nb
			changed = true
		}
	}
	if nb := s.stat & o.stat; nb != s.stat {
		s.stat = nb
		changed = true
	}
	return changed
}

// factProblem instantiates the checked-facts analysis over one code array
// (a method body or a catch block).
type factProblem struct {
	an  *analyzer
	m   *jvm.Method
	cfg *jvm.CFG
	// entry seeds fact bits for leading parameter slots at the boundary;
	// nil means no entry facts (conservative, valid for host entry).
	entry []uint8
}

func (a *analyzer) problemFor(m *jvm.Method, code []jvm.Instr, entry []uint8) *factProblem {
	return &factProblem{an: a, m: m, cfg: jvm.BuildCFG(code), entry: entry}
}

func (pr *factProblem) Direction() jvm.Direction { return jvm.Forward }

func (pr *factProblem) Boundary() jvm.State {
	s := newFactState(pr.m.NLocal, pr.m.NArgs)
	for k := 0; k < pr.m.NArgs && k < pr.m.NLocal; k++ {
		s.orig[k] = int16(k)
	}
	for i := pr.m.NArgs; i < pr.m.NLocal; i++ {
		s.orig[i] = originUnknown
	}
	for k := 0; k < len(pr.entry) && k < len(s.slots); k++ {
		s.slots[k] = pr.entry[k]
	}
	return s
}

func (pr *factProblem) Top() jvm.State {
	s := newFactState(pr.m.NLocal, pr.m.NArgs)
	for i := range s.slots {
		s.slots[i] = jvm.FactAll
		s.orig[i] = originTop
	}
	for i := range s.args {
		s.args[i] = jvm.FactAll
	}
	s.stat = jvm.FactAll
	return s
}

func (pr *factProblem) Transfer(b int, st jvm.State) {
	s := st.(*factState)
	blk := pr.cfg.Blocks[b]
	for pc := blk.Start; pc < blk.End; pc++ {
		pr.step(s, pc)
	}
}

// step is the per-instruction transfer function.
func (pr *factProblem) step(s *factState, pc int) {
	code := pr.cfg.Code
	in := code[pc]
	switch {
	case in.Op.AccessDepth() >= 0:
		bit := jvm.FactRead
		if in.Op.IsWrite() {
			bit = jvm.FactWrite
		}
		if src := pr.an.prog.StackSource(pr.cfg, pc, in.Op.AccessDepth(), true); src >= 0 && code[src].Op == jvm.OpLoad {
			slot := int(code[src].A)
			if slot < len(s.slots) {
				s.slots[slot] |= bit
				if o := s.orig[slot]; o >= 0 && int(o) < len(s.args) {
					s.args[o] |= bit
				}
			}
		}
	case in.Op == jvm.OpGetStatic:
		s.stat |= jvm.FactRead
	case in.Op == jvm.OpPutStatic:
		s.stat |= jvm.FactWrite
	case in.Op == jvm.OpInvoke:
		sum := pr.an.summaryOf(int(in.A))
		if sum == nil {
			return
		}
		callee := pr.an.prog.Methods[in.A]
		s.stat |= sum.Statics
		for k := 0; k < callee.NArgs && k < len(sum.Ensures); k++ {
			bits := sum.Ensures[k]
			if bits == 0 {
				continue
			}
			// Argument k sits at depth NArgs-1-k (last argument on top)
			// just before the invoke executes.
			if src := pr.an.prog.StackSource(pr.cfg, pc, callee.NArgs-1-k, true); src >= 0 && code[src].Op == jvm.OpLoad {
				slot := int(code[src].A)
				if slot < len(s.slots) {
					s.slots[slot] |= bits
					if o := s.orig[slot]; o >= 0 && int(o) < len(s.args) {
						s.args[o] |= bits
					}
				}
			}
		}
	case in.Op == jvm.OpStore:
		d := int(in.A)
		if d >= len(s.slots) {
			return
		}
		src := pr.an.prog.StackSource(pr.cfg, pc, 0, true)
		switch {
		case src >= 0 && (code[src].Op == jvm.OpNew || code[src].Op == jvm.OpNewArray):
			s.slots[d] = jvm.FactAll
			s.orig[d] = originFresh
		case src >= 0 && code[src].Op == jvm.OpLoad:
			ss := int(code[src].A)
			if ss < len(s.slots) {
				s.slots[d] = s.slots[ss]
				s.orig[d] = s.orig[ss]
			} else {
				s.slots[d] = 0
				s.orig[d] = originUnknown
			}
		case src >= 0 && code[src].Op == jvm.OpInvoke:
			var ret uint8
			if sum := pr.an.summaryOf(int(code[src].A)); sum != nil {
				ret = sum.Return
			}
			s.slots[d] = ret
			s.orig[d] = originUnknown
		default:
			s.slots[d] = 0
			s.orig[d] = originUnknown
		}
	}
}

// stateAt replays the transfer function from pc's block entry up to (but
// not including) pc, given the solved per-block input states.
func (pr *factProblem) stateAt(states []jvm.State, pc int) *factState {
	b := pr.cfg.BlockOf(pc)
	s := states[b].Clone().(*factState)
	for i := pr.cfg.Blocks[b].Start; i < pc; i++ {
		pr.step(s, i)
	}
	return s
}

// valueFacts classifies the stack value at the given depth just before
// pc: the fact bits it carries, whether it is a fresh in-activation
// allocation, and which parameter object it is (or -1).
func (pr *factProblem) valueFacts(s *factState, pc, depth int) (bits uint8, fresh bool, param int) {
	param = -1
	src := pr.an.prog.StackSource(pr.cfg, pc, depth, true)
	if src < 0 {
		return 0, false, -1
	}
	code := pr.cfg.Code
	switch code[src].Op {
	case jvm.OpNew, jvm.OpNewArray:
		return jvm.FactAll, true, -1
	case jvm.OpLoad:
		slot := int(code[src].A)
		if slot >= len(s.slots) {
			return 0, false, -1
		}
		o := s.orig[slot]
		if o >= 0 {
			param = int(o)
		}
		return s.slots[slot], o == originFresh, param
	case jvm.OpInvoke:
		if sum := pr.an.summaryOf(int(code[src].A)); sum != nil {
			return sum.Return, false, -1
		}
	}
	return 0, false, -1
}
