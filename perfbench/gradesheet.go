package main

import (
	"errors"
	"fmt"
	"math/rand"

	"laminar"
	"laminar/internal/apps/gradesheet"
	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/rt"
)

// The gradesheet workload calls the §7.1 grade server directly, without
// the request-handling spin gradesheet.Workload puts around each call, so
// region entry and exit, barriers and flow checks on inline (1-tag) and
// heap (48-tag) labels are nearly all of the work, and no request makes a
// syscall. A ledger tracks every student tag, so each region exit that
// drops one is charged.
const (
	gsStudents = 48
	gsProjects = 8
	gsMaxMark  = 100
	// gsBudget is a per-tag limit no run can reach.
	gsBudget = 1 << 62
)

type gsOp uint8

const (
	gsStudentRead      gsOp = iota // a student reads an own mark: 1-tag region
	gsTAWrite                      // a TA records a mark in its column: S and I labels
	gsTAReadColumn                 // a TA reads its column: 48-tag region
	gsProfessorAverage             // the professor averages a column and declassifies it
	gsCrossRead                    // a student probes another's mark: refused at entry
	gsStudentAverage               // a student probes a class average: refused at entry
	gsOps
)

var gsOpNames = [gsOps]string{"student_read", "ta_write", "ta_read_column", "professor_average", "cross_read", "student_average"}

// gsMix is the request mix in percent. Each reported percentile must fall
// well inside one request type's share, never on the boundary between
// two latency modes: the one-tag reads alone are more than half the
// requests, so the median sits inside them, and the professor's averages,
// the costliest request, are 4 %, so the 99th percentile sits inside them.
var gsMix = [gsOps]int{
	gsStudentRead:      60,
	gsTAWrite:          16,
	gsTAReadColumn:     8,
	gsProfessorAverage: 4,
	gsCrossRead:        8,
	gsStudentAverage:   4,
}

func gradesheetSizes() map[string]int {
	s := map[string]int{"students": gsStudents, "projects": gsProjects}
	for op, pct := range gsMix {
		s["mix_pct."+gsOpNames[op]] = pct
	}
	return s
}

type gradesheetWL struct {
	srv   *gradesheet.Server
	vm    *laminar.VM
	led   *budget.Ledger
	rng   *rand.Rand
	mix   [100]gsOp // request type by percentile
	marks [gsStudents][gsProjects]int
	h     digest
}

func newGradesheet(seed int64) (workload, error) {
	led := budget.New()
	srv, err := gradesheet.New(laminar.NewSystem(kernel.WithBudget(led)), gsStudents, gsProjects)
	if err != nil {
		return nil, err
	}
	// The server keeps its tags private. A column read's region carries
	// every student tag, so read them off its audit event.
	var students difc.Label
	srv.VM().SetAudit(func(e rt.Event) {
		if e.Kind == rt.EvRegionEnter {
			students = e.Labels.S
		}
	})
	_, err = srv.TAReadColumn(0, 0)
	srv.VM().SetAudit(nil)
	if err != nil {
		return nil, fmt.Errorf("column read: %w", err)
	}
	if students.Len() != gsStudents {
		return nil, fmt.Errorf("a column region carries %d tags, want %d", students.Len(), gsStudents)
	}
	for _, tag := range students.Tags() {
		if err := led.SetLimit(tag, 0, gsBudget); err != nil {
			return nil, err
		}
	}
	w := &gradesheetWL{srv: srv, vm: srv.VM(), led: led, rng: rand.New(rand.NewSource(seed))}
	i := 0
	for op, pct := range gsMix {
		for ; pct > 0 && i < len(w.mix); pct-- {
			w.mix[i] = gsOp(op)
			i++
		}
	}
	if i != len(w.mix) {
		return nil, errors.New("the request mix does not sum to 100")
	}
	return w, nil
}

func (w *gradesheetWL) step(tr *tracer) (bool, error) {
	op := w.mix[w.rng.Intn(len(w.mix))]
	i, j := w.rng.Intn(gsStudents), w.rng.Intn(gsProjects)
	var mark, other int
	switch op {
	case gsTAWrite:
		mark = w.rng.Intn(gsMaxMark + 1)
	case gsCrossRead:
		other = (i + 1 + w.rng.Intn(gsStudents-1)) % gsStudents
	}
	w.h.add(uint64(op), uint64(i), uint64(j), uint64(mark), uint64(other))

	var (
		got int
		col []int
		err error
	)
	s := tr.begin()
	switch op {
	case gsStudentRead:
		got, err = w.srv.StudentRead(i, i, j)
	case gsTAWrite:
		err = w.srv.TAWrite(j, i, j, mark)
	case gsTAReadColumn:
		col, err = w.srv.TAReadColumn(j, j)
	case gsProfessorAverage:
		got, err = w.srv.ProfessorAverage(j)
	case gsCrossRead:
		_, err = w.srv.StudentRead(i, other, j)
	case gsStudentAverage:
		_, err = w.srv.StudentAverage(i, j)
	}
	tr.end(spGradesheet, s)

	switch op {
	case gsStudentRead:
		return err == nil && got == w.marks[i][j], nil
	case gsTAWrite:
		if err != nil {
			return false, nil
		}
		w.marks[i][j] = mark
		return true, nil
	case gsTAReadColumn:
		return err == nil && w.columnMatches(j, col), nil
	case gsProfessorAverage:
		return err == nil && got == w.average(j), nil
	default: // the probes must be refused
		return errors.Is(err, gradesheet.ErrDenied), nil
	}
}

func (w *gradesheetWL) columnMatches(j int, col []int) bool {
	if len(col) != gsStudents {
		return false
	}
	for i, m := range col {
		if m != w.marks[i][j] {
			return false
		}
	}
	return true
}

func (w *gradesheetWL) average(j int) int {
	sum := 0
	for i := range w.marks {
		sum += w.marks[i][j]
	}
	return sum / gsStudents
}

func (w *gradesheetWL) read(c *counters) {
	st := w.vm.Stats()
	c[cRegions] = st.RegionsEntered.Load()
	c[cBarriers] = st.ReadBarriers.Load() + st.WriteBarriers.Load() + st.AllocBarriers.Load()
	c[cRegionNanos] = uint64(st.RegionNanos.Load())
	c[cHooks] = w.vm.Kernel().HookCalls()
	c[cBudgetUnits] = spent(w.led)
}

// corrupt shifts the model's whole first column by one mark.
func (w *gradesheetWL) corrupt() {
	for i := range w.marks {
		w.marks[i][0]++
	}
}

func (w *gradesheetWL) verify() error {
	for j := 0; j < gsProjects; j++ {
		col, err := w.srv.TAReadColumn(j, j)
		if err != nil || !w.columnMatches(j, col) {
			return fmt.Errorf("column %d reads %v (%v), model differs", j, col, err)
		}
		if avg, err := w.srv.ProfessorAverage(j); err != nil || avg != w.average(j) {
			return fmt.Errorf("average of column %d = %d (%v), model %d", j, avg, err, w.average(j))
		}
	}
	return nil
}

func (w *gradesheetWL) trail() uint64 { return uint64(w.h) }

func (w *gradesheetWL) close() {}
