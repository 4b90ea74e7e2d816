package gradesheet

import (
	"math/rand"

	"laminar/internal/simwork"
)

// requestHandlingWork models the per-query parsing and response
// formatting of the original server, identical in both variants.
const requestHandlingWork = 8000

// Workload drives the server with the paper's experiment shape (§7.1):
// queries from different users — student reads, TA writes and column
// reads, professor averages. The mix keeps roughly 6% of wall time inside
// security regions (Table 3) because most work is request handling around
// the region.
type Workload struct {
	rng *rand.Rand
}

// NewWorkload builds a deterministic workload.
func NewWorkload(seed int64) *Workload {
	return &Workload{rng: rand.New(rand.NewSource(seed))}
}

// RunSecured processes n queries against the secured server and returns a
// checksum (so the compiler cannot elide work).
func (w *Workload) RunSecured(s *Server, n int) int {
	sum := 0
	for q := 0; q < n; q++ {
		i := w.rng.Intn(s.nStud)
		j := w.rng.Intn(s.nProj)
		switch q % 4 {
		case 0: // TA updates a cell in her column
			if err := s.TAWrite(j, i, j, q%100); err != nil {
				panic(err)
			}
		case 1: // student reads own marks
			m, err := s.StudentRead(i, i, j)
			if err != nil {
				panic(err)
			}
			sum += m
		case 2: // TA surveys her column
			col, err := s.TAReadColumn(j, j)
			if err != nil {
				panic(err)
			}
			sum += len(col)
		case 3: // professor publishes the average
			avg, err := s.ProfessorAverage(j)
			if err != nil {
				panic(err)
			}
			sum += avg
		}
		// Unlabeled request-handling work outside the regions: parsing,
		// response formatting (simulated).
		sum += simulateRequestHandling(w.rng, 40)
	}
	return sum
}

// RunUnsecured processes the same query mix against the original server.
func (w *Workload) RunUnsecured(u *Unsecured, n int) int {
	sum := 0
	for q := 0; q < n; q++ {
		i := w.rng.Intn(u.nStud)
		j := w.rng.Intn(u.nProj)
		switch q % 4 {
		case 0:
			if err := u.write(RoleTA, j, i, j, q%100); err != nil {
				panic(err)
			}
		case 1:
			m, err := u.read(RoleStudent, i, i, j)
			if err != nil {
				panic(err)
			}
			sum += m
		case 2:
			for k := 0; k < u.nStud; k++ {
				m, err := u.read(RoleTA, j, k, j)
				if err != nil {
					panic(err)
				}
				sum += m
			}
			sum -= sum // keep comparable magnitude
		case 3:
			avg, err := u.Average(RoleProfessor, 0, j)
			if err != nil {
				panic(err)
			}
			sum += avg
		}
		sum += simulateRequestHandling(w.rng, 40)
	}
	return sum
}

// simulateRequestHandling models the unlabeled request parsing and
// response formatting around each query — the large majority of
// GradeSheet's time spent outside security regions (Table 3).
func simulateRequestHandling(rng *rand.Rand, work int) int {
	simwork.Do(requestHandlingWork)
	return rng.Intn(2)
}
