package eval

import (
	"fmt"
	"strings"

	"laminar"
	"laminar/internal/difc"
	"laminar/internal/flume"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/pagelabel"
)

// Table1Report reproduces the design-taxonomy table with executable
// probes: instead of quoting the papers, it demonstrates each claimed
// capability or gap on the implementations in this repository.
type Table1Report struct {
	// LaminarHeterogeneous: two differently-labeled objects accessed by
	// two threads in one address space under Laminar.
	LaminarHeterogeneous bool
	// FlumeHeterogeneous: the same configuration under a
	// process-granularity monitor (must be false).
	FlumeHeterogeneous bool
	// PageGranularityPages / ObjectCount: space cost of page-granularity
	// labeling for a heap of small heterogeneously labeled objects.
	ObjectCount           int
	PageGranularityPages  int
	PageGranularityWasted int
	// LaminarFilesEnforced: OS resources covered by the same labels
	// (language-only systems leave files unchecked).
	LaminarFilesEnforced bool
}

// Table1 runs the probes.
func Table1() (*Table1Report, error) {
	rep := &Table1Report{}

	// Probe 1: heterogeneous labels in one address space under Laminar.
	sys := laminar.NewSystem()
	shell, err := sys.Login("probe")
	if err != nil {
		return nil, err
	}
	_, th, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	t1, _ := th.CreateTag()
	t2, _ := th.CreateTag()
	ok1, ok2 := false, false
	th.Secure(laminar.Labels{S: laminar.NewLabel(t1)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		o := r.Alloc(nil)
		r.Set(o, "x", 1)
		ok1 = r.Get(o, "x") == 1
	}, nil)
	th.Secure(laminar.Labels{S: laminar.NewLabel(t2)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		o := r.Alloc(nil)
		r.Set(o, "x", 2)
		ok2 = r.Get(o, "x") == 2
	}, nil)
	rep.LaminarHeterogeneous = ok1 && ok2

	// Probe 2: the same two labels under the Flume-style monitor.
	mon := flume.NewMonitor()
	p := mon.Spawn()
	f1, f2 := mon.CreateTag(p), mon.CreateTag(p)
	rep.FlumeHeterogeneous = mon.CanHoldBoth(
		difc.Labels{S: difc.NewLabel(f1)},
		difc.Labels{S: difc.NewLabel(f2)},
	)

	// Probe 3: page-granularity space cost for a GradeSheet-shaped heap —
	// 16 students × 8 projects of 64-byte cells, each with a distinct
	// label pair.
	heap := pagelabel.NewHeap()
	count := 0
	for i := 0; i < 16; i++ {
		for j := 0; j < 8; j++ {
			l := difc.Labels{
				S: difc.NewLabel(difc.Tag(100 + i)),
				I: difc.NewLabel(difc.Tag(200 + j)),
			}
			if err := heap.Alloc(64, l); err != nil {
				return nil, err
			}
			count++
		}
	}
	st := heap.Stats()
	rep.ObjectCount = count
	rep.PageGranularityPages = st.Pages
	rep.PageGranularityWasted = st.BytesWasted

	// Probe 4: the same label namespace covers files (PL-only systems
	// cannot check this). A tainted thread's write to an unlabeled file
	// must fail at the kernel.
	k := sys.Kernel()
	task := th.Task()
	if err := k.Chdir(task, "/tmp"); err != nil {
		return nil, err
	}
	fd, err := k.Open(task, "t1probe", laminar.OCreate|laminar.OWrite)
	if err != nil {
		return nil, err
	}
	var denied bool
	th.Secure(laminar.Labels{S: laminar.NewLabel(t1)}, laminar.EmptyCapSet, func(r *laminar.Region) {
		_, werr := r.WriteFile(fd, []byte("leak"))
		denied = werr != nil
	}, nil)
	rep.LaminarFilesEnforced = denied
	return rep, nil
}

// Format renders the taxonomy.
func (r *Table1Report) Format() string {
	var b strings.Builder
	b.WriteString(header("Table 1 (probes): DIFC design-space claims, demonstrated"))
	yes := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(&b, "heterogeneously labeled objects in one address space:\n")
	fmt.Fprintf(&b, "  Laminar (object granularity):            %s\n", yes(r.LaminarHeterogeneous))
	fmt.Fprintf(&b, "  process-granularity monitor (Flume-like): %s\n", yes(r.FlumeHeterogeneous))
	fmt.Fprintf(&b, "page-granularity labeling (HiStar-like) on %d small objects:\n", r.ObjectCount)
	fmt.Fprintf(&b, "  pages pinned: %d, bytes wasted: %d (object granularity: 0 pages pinned)\n",
		r.PageGranularityPages, r.PageGranularityWasted)
	fmt.Fprintf(&b, "OS resources under the same labels (files checked in-kernel): %s\n",
		yes(r.LaminarFilesEnforced))
	return b.String()
}

// FlumeCompareReport reproduces the §6.2 framing: Flume adds 4–35× to
// syscall latency because every operation crosses a user-level monitor,
// while Laminar's in-kernel hooks add a few percent. We time one
// send/recv round trip through each.
type FlumeCompareReport struct {
	LaminarPipeNs float64
	FlumeIPCNs    float64
	Ratio         float64
}

// FlumeCompare measures both IPC paths.
func FlumeCompare(iters int) (*FlumeCompareReport, error) {
	// Laminar: kernel pipe with the LSM installed.
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod))
	mod.InstallSystemIntegrity(k)
	task, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, err
	}
	rfd, wfd, err := k.Pipe(task)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8)
	lam := timeIt(func() {
		for i := 0; i < iters; i++ {
			if _, err := k.Write(task, wfd, buf); err != nil {
				panic(err)
			}
			if _, err := k.Read(task, rfd, buf); err != nil {
				panic(err)
			}
		}
	})

	// Flume: endpoint pair through the user-level monitor. The monitor
	// adds queueing, copying and bookkeeping per crossing — the
	// structural source of its latency multiple.
	mon := flume.NewMonitor()
	a, b := mon.Spawn(), mon.Spawn()
	ea, eb, err := mon.CreateEndpointPair(a, b, difc.Labels{})
	if err != nil {
		return nil, err
	}
	fl := timeIt(func() {
		for i := 0; i < iters; i++ {
			if err := mon.Send(a, ea, buf); err != nil {
				panic(err)
			}
			if _, err := mon.Recv(b, eb); err != nil {
				panic(err)
			}
		}
	})

	rep := &FlumeCompareReport{
		LaminarPipeNs: float64(lam.Nanoseconds()) / float64(iters),
		FlumeIPCNs:    float64(fl.Nanoseconds()) / float64(iters),
	}
	if rep.LaminarPipeNs > 0 {
		rep.Ratio = rep.FlumeIPCNs / rep.LaminarPipeNs
	}
	return rep, nil
}

// Format renders the comparison.
func (r *FlumeCompareReport) Format() string {
	var b strings.Builder
	b.WriteString(header("Flume-style monitor vs Laminar LSM: IPC round trip (§6.2 framing)"))
	fmt.Fprintf(&b, "Laminar kernel pipe: %8.0f ns/op\n", r.LaminarPipeNs)
	fmt.Fprintf(&b, "monitor endpoints:   %8.0f ns/op\n", r.FlumeIPCNs)
	fmt.Fprintf(&b, "ratio:               %8.2fx\n", r.Ratio)
	b.WriteString("\npaper: Flume adds 4–35× to syscall latency vs unmodified Linux;\n" +
		"Laminar's in-kernel hooks stay within a few percent (Table 2).\n")
	return b.String()
}

// Table4Report prints the GradeSheet security sets (Table 4) as
// constructed by the running policy.
type Table4Report struct {
	Students int
	Projects int
}

// Table4 builds the report (the policy itself is exercised by the
// gradesheet package's tests; this renders the sets).
func Table4(students, projects int) *Table4Report {
	return &Table4Report{Students: students, Projects: projects}
}

// Format renders Table 4 in the paper's notation.
func (r *Table4Report) Format() string {
	var b strings.Builder
	b.WriteString(header("Table 4: GradeSheet security sets"))
	fmt.Fprintf(&b, "%-16s %s\n", "name", "security set")
	fmt.Fprintf(&b, "%-16s S={s_i}, I={p_j}\n", "GradeCell(i,j)")
	fmt.Fprintf(&b, "%-16s C={s_i+, s_i-}\n", "Student(i)")
	fmt.Fprintf(&b, "%-16s C={s_1+..s_%d+, p_j+, p_j-}\n", "TA(j)", r.Students)
	fmt.Fprintf(&b, "%-16s C={(s_i+, s_i-, p_j+, p_j-) for all i<=%d, j<=%d}\n",
		"Professor", r.Students, r.Projects)
	return b.String()
}
