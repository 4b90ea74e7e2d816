// Package gradesheet is the first Laminar case study (§7.1): a grade
// server whose two-dimensional GradeCell array is protected per-cell with
// heterogeneous labels — cell (i,j) carries secrecy tag s_i (student i's
// privacy) and integrity tag p_j (project j's grading authority), the
// Table 4 policy:
//
//	GradeCell(i,j)  {S(s_i), I(p_j)}
//	Student(i)      C(s_i+, s_i−)
//	TA(j)           C(s_1+ … s_n+, p_j+, p_j−)
//	Professor       C(all ±)
//
// Students read their own marks for any project; TAs read all marks but
// modify only their own project's; only the professor can compute and
// declassify the class average — the information leak Laminar found in
// the original ad-hoc policy (§7.1). The unsecured variant reproduces the
// original if..then authorization checks, leak included.
package gradesheet

import (
	"fmt"

	"laminar"
)

// Server is the secured grade server.
type Server struct {
	vm        *laminar.VM
	professor *laminar.Thread
	tas       []*laminar.Thread
	students  []*laminar.Thread
	// The region labels, built once: {s_i} per student, {p_j} per
	// project, every student tag, and the professor's minus capability
	// over them for the declassifying average.
	sLabels  []laminar.Label
	pLabels  []laminar.Label
	all      laminar.Label
	minusAll laminar.CapSet
	cells    [][]*laminar.Object
	nStud    int
	nProj    int
}

// New builds a secured server with the Table 4 capability distribution.
func New(sys *laminar.System, nStudents, nProjects int) (*Server, error) {
	shell, err := sys.Login("professor")
	if err != nil {
		return nil, err
	}
	vm, prof, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	s := &Server{
		vm: vm, professor: prof,
		nStud: nStudents, nProj: nProjects,
		sLabels: make([]laminar.Label, nStudents),
		pLabels: make([]laminar.Label, nProjects),
	}
	sTags := make([]laminar.Tag, nStudents) // s_i, one per student
	pTags := make([]laminar.Tag, nProjects) // p_j, one per project
	for i := range sTags {
		if sTags[i], err = prof.CreateTag(); err != nil {
			return nil, err
		}
		s.sLabels[i] = laminar.NewLabel(sTags[i])
	}
	for j := range pTags {
		if pTags[j], err = prof.CreateTag(); err != nil {
			return nil, err
		}
		s.pLabels[j] = laminar.NewLabel(pTags[j])
	}
	s.all = laminar.NewLabel(sTags...)
	s.minusAll = laminar.NewCapSet(laminar.EmptyLabel, s.all)
	// Allocate the labeled cells: the professor enters a region per cell
	// label pair. (Entering needs s_i+ and p_j+, which the professor has
	// as tag creator.)
	s.cells = make([][]*laminar.Object, nStudents)
	for i := 0; i < nStudents; i++ {
		s.cells[i] = make([]*laminar.Object, nProjects)
		for j := 0; j < nProjects; j++ {
			labels := laminar.Labels{S: s.sLabels[i], I: s.pLabels[j]}
			i, j := i, j
			err := prof.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
				cell := r.Alloc(nil)
				r.Set(cell, "marks", 0)
				s.cells[i][j] = cell
			}, nil)
			if err != nil {
				return nil, err
			}
		}
	}
	// Fork the principal threads with Table 4 capability subsets.
	s.students = make([]*laminar.Thread, nStudents)
	for i := range s.students {
		keep := []laminar.Capability{{Tag: sTags[i], Kind: laminar.CapBoth}}
		if s.students[i], err = prof.Fork(keep); err != nil {
			return nil, err
		}
	}
	s.tas = make([]*laminar.Thread, nProjects)
	for j := range s.tas {
		keep := make([]laminar.Capability, 0, nStudents+1)
		for _, tag := range sTags {
			keep = append(keep, laminar.Capability{Tag: tag, Kind: laminar.CapPlus})
		}
		keep = append(keep, laminar.Capability{Tag: pTags[j], Kind: laminar.CapBoth})
		if s.tas[j], err = prof.Fork(keep); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// VM exposes the runtime for statistics.
func (s *Server) VM() *laminar.VM { return s.vm }

// ErrDenied reports a policy rejection observed by a caller.
var ErrDenied = fmt.Errorf("gradesheet: access denied")

// StudentRead returns student i's marks for project j, executed as the
// student principal. A student asking about another student's cell cannot
// even enter the region.
func (s *Server) StudentRead(student, i, j int) (int, error) {
	th := s.students[student]
	labels := laminar.Labels{S: s.sLabels[i]}
	marks, violated := 0, false
	err := th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		marks = r.Get(s.cells[i][j], "marks").(int)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return 0, ErrDenied
	}
	return marks, nil
}

// TAWrite records marks for (i, j) as TA ta. The integrity tag p_j
// guarantees only project j's TA can modify its column.
func (s *Server) TAWrite(ta, i, j, marks int) error {
	th := s.tas[ta]
	labels := laminar.Labels{S: s.sLabels[i], I: s.pLabels[j]}
	violated := false
	err := th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		r.Set(s.cells[i][j], "marks", marks)
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return ErrDenied
	}
	return nil
}

// TAReadColumn returns all marks for project j as TA ta (legal: TAs hold
// every s_i+).
func (s *Server) TAReadColumn(ta, j int) ([]int, error) {
	th := s.tas[ta]
	labels := laminar.Labels{S: s.all}
	out := make([]int, s.nStud)
	violated := false
	err := th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		for i := 0; i < s.nStud; i++ {
			out[i] = r.Get(s.cells[i][j], "marks").(int)
		}
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return nil, ErrDenied
	}
	return out, nil
}

// StudentAverage is the leak probe: student tries to compute the class
// average for project j. Under the Table 4 policy the student holds only
// s_i+ and cannot enter a region covering other students' tags.
func (s *Server) StudentAverage(student, j int) (int, error) {
	th := s.students[student]
	labels := laminar.Labels{S: s.all}
	sum, violated := 0, false
	err := th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
		for i := 0; i < s.nStud; i++ {
			sum += r.Get(s.cells[i][j], "marks").(int)
		}
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return 0, ErrDenied
	}
	return sum / s.nStud, nil
}

// ProfessorAverage computes and declassifies the class average for
// project j: read everything in a region covering all student tags, then
// declassify the aggregate in a nested region using the professor's minus
// capabilities (the paper's corrected policy).
func (s *Server) ProfessorAverage(j int) (int, error) {
	out := laminar.NewObject()
	violated := false
	err := s.professor.Secure(laminar.Labels{S: s.all}, s.minusAll, func(r *laminar.Region) {
		agg := r.Alloc(nil)
		sum := 0
		for i := 0; i < s.nStud; i++ {
			sum += r.Get(s.cells[i][j], "marks").(int)
		}
		r.Set(agg, "avg", sum/s.nStud)
		// Nested declassification region.
		err := s.professor.Secure(laminar.Labels{}, s.minusAll, func(r2 *laminar.Region) {
			pub := r2.CopyAndLabel(agg, laminar.Labels{})
			out.RawSet("avg", r2.Get(pub, "avg"))
		}, nil)
		if err != nil {
			panic(err)
		}
	}, func(r *laminar.Region, e any) { violated = true })
	if err != nil || violated {
		return 0, ErrDenied
	}
	return out.RawGet("avg").(int), nil
}

// --- unsecured variant: the original ad-hoc if..then policy ---

// Role enumerates the original program's principals.
type Role int

// Roles.
const (
	RoleStudent Role = iota
	RoleTA
	RoleProfessor
)

// Unsecured is the original GradeSheet with authorization sprinkled as
// if..then checks — including the average leak the paper reports.
type Unsecured struct {
	cells [][]*laminar.Object
	nStud int
	nProj int
}

// NewUnsecured builds the baseline server. Cells are the same rt.Object
// containers (same field reads and writes, same layout) without labels, so overhead
// comparisons isolate the DIFC checks.
func NewUnsecured(nStudents, nProjects int) *Unsecured {
	u := &Unsecured{nStud: nStudents, nProj: nProjects}
	u.cells = make([][]*laminar.Object, nStudents)
	for i := range u.cells {
		u.cells[i] = make([]*laminar.Object, nProjects)
		for j := range u.cells[i] {
			o := laminar.NewObject()
			o.RawSet("marks", 0)
			u.cells[i][j] = o
		}
	}
	return u
}

// read implements the original policy: students may read their own row;
// TAs and the professor read anything.
func (u *Unsecured) read(role Role, who, i, j int) (int, error) {
	if role == RoleStudent && who != i {
		return 0, ErrDenied
	}
	return u.cells[i][j].RawGet("marks").(int), nil
}

// write implements the original policy: TAs write their own project's
// column; the professor writes anything.
func (u *Unsecured) write(role Role, who, i, j, marks int) error {
	switch role {
	case RoleProfessor:
	case RoleTA:
		if who != j {
			return ErrDenied
		}
	default:
		return ErrDenied
	}
	u.cells[i][j].RawSet("marks", marks)
	return nil
}

// Average is the leaky endpoint: the original policy let any student
// compute the project average, which leaks information about everyone
// else's marks.
func (u *Unsecured) Average(role Role, who, j int) (int, error) {
	sum := 0
	for i := 0; i < u.nStud; i++ {
		sum += u.cells[i][j].RawGet("marks").(int)
	}
	return sum / u.nStud, nil
}
