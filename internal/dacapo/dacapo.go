// Package dacapo provides the synthetic MiniJVM workloads standing in for
// the DaCapo benchmarks and pseudojbb in the Laminar paper's JVM-overhead
// experiment (§6.1). The real experiment measures Java programs *without
// security regions* under three VM configurations — unmodified, static
// barriers, dynamic barriers — so what matters is the density and mix of
// heap accesses, not the benchmark semantics. Each workload here is a
// bytecode program generated from a per-benchmark operation mix calibrated
// to the heap-intensive character of its namesake (pointer-chasing for
// antlr/pmd, array-heavy for lusearch/luindex, allocation-heavy for
// xalan/hsqldb, transaction-object churn for jbb).
package dacapo

import (
	"fmt"
	"math/rand"

	"laminar/internal/jvm"
)

// Mix describes a workload's per-iteration operation profile. Percentages
// need not sum to 100; the remainder is arithmetic.
type Mix struct {
	Name       string
	FieldRead  int // % of ops reading an object field
	FieldWrite int // % writing an object field
	ArrayOps   int // % array element reads/writes
	Alloc      int // % allocating a fresh object
	PoolSize   int // objects in the working set
	OpsPerIter int // operations generated per loop iteration
}

// Workloads is the benchmark suite: nine DaCapo-shaped mixes plus
// pseudojbb.
var Workloads = []Mix{
	{Name: "antlr", FieldRead: 42, FieldWrite: 14, ArrayOps: 8, Alloc: 6, PoolSize: 64, OpsPerIter: 48},
	{Name: "bloat", FieldRead: 38, FieldWrite: 22, ArrayOps: 10, Alloc: 4, PoolSize: 96, OpsPerIter: 56},
	{Name: "fop", FieldRead: 30, FieldWrite: 12, ArrayOps: 16, Alloc: 8, PoolSize: 48, OpsPerIter: 40},
	{Name: "hsqldb", FieldRead: 26, FieldWrite: 18, ArrayOps: 12, Alloc: 12, PoolSize: 128, OpsPerIter: 64},
	{Name: "jython", FieldRead: 36, FieldWrite: 16, ArrayOps: 6, Alloc: 10, PoolSize: 80, OpsPerIter: 52},
	{Name: "luindex", FieldRead: 18, FieldWrite: 10, ArrayOps: 34, Alloc: 4, PoolSize: 40, OpsPerIter: 44},
	{Name: "lusearch", FieldRead: 16, FieldWrite: 6, ArrayOps: 40, Alloc: 2, PoolSize: 40, OpsPerIter: 44},
	{Name: "pmd", FieldRead: 44, FieldWrite: 12, ArrayOps: 6, Alloc: 6, PoolSize: 72, OpsPerIter: 48},
	{Name: "xalan", FieldRead: 28, FieldWrite: 14, ArrayOps: 10, Alloc: 14, PoolSize: 112, OpsPerIter: 56},
	{Name: "pseudojbb", FieldRead: 24, FieldWrite: 20, ArrayOps: 14, Alloc: 10, PoolSize: 160, OpsPerIter: 72},
}

// fields per pooled object.
const nFields = 4

// Build generates the workload's program: a setup method that fills an
// object pool and a run(n) method whose loop body is OpsPerIter operations
// drawn deterministically from the mix. The program has no security
// regions, matching §6.1's configuration.
func Build(m Mix) (*jvm.Program, error) {
	p := jvm.NewProgram(1)
	rng := rand.New(rand.NewSource(int64(len(m.Name))*1007 + int64(m.OpsPerIter)))

	// run(n): local 0 = n, 1 = pool array, 2 = loop counter, 3 = scratch
	// object, 4 = accumulator, 5 = scratch index.
	a := jvm.NewAsm()
	// pool = new array[PoolSize]; fill with objects.
	a.Const(int64(m.PoolSize)).Emit(jvm.OpNewArray, 0).Store(1)
	a.Const(0).Store(2)
	a.Label("fill")
	a.Load(2).Const(int64(m.PoolSize)).Op(jvm.OpCmpGE).JmpIf("filled")
	a.Load(1).Load(2).New(nFields).Op(jvm.OpAStore)
	a.Load(2).Const(1).Op(jvm.OpAdd).Store(2)
	a.Jmp("fill")
	a.Label("filled")
	// Initialize each object's fields to its index (second pass keeps the
	// generator simple).
	a.Const(0).Store(2)
	a.Label("init")
	a.Load(2).Const(int64(m.PoolSize)).Op(jvm.OpCmpGE).JmpIf("inited")
	a.Load(1).Load(2).Op(jvm.OpALoad).Store(3)
	for f := 0; f < nFields; f++ {
		a.Load(3).Load(2).PutField(f)
	}
	a.Load(2).Const(1).Op(jvm.OpAdd).Store(2)
	a.Jmp("init")
	a.Label("inited")

	// Main loop: while (local0-- > 0) { body }.
	a.Const(0).Store(4)
	a.Label("loop")
	a.Load(0).Const(0).Op(jvm.OpCmpLE).JmpIf("done")
	a.Load(0).Const(1).Op(jvm.OpSub).Store(0)
	emitBody(a, m, rng)
	a.Jmp("loop")
	a.Label("done")
	a.Load(4).Op(jvm.OpReturnVal)

	code, err := a.Build()
	if err != nil {
		return nil, fmt.Errorf("dacapo %s: %v", m.Name, err)
	}
	p.Add(&jvm.Method{Name: "run", NArgs: 1, NLocal: 6, Code: code})
	return p, nil
}

// emitBody generates one iteration's operations. Each op picks a pool slot
// with cheap arithmetic on the loop variable so the access pattern varies
// across iterations without calls into the host.
func emitBody(a *jvm.Asm, m Mix, rng *rand.Rand) {
	for op := 0; op < m.OpsPerIter; op++ {
		slot := rng.Intn(m.PoolSize)
		field := rng.Intn(nFields)
		r := rng.Intn(100)
		switch {
		case r < m.FieldRead:
			// acc += pool[slot].f
			a.Load(1).Const(int64(slot)).Op(jvm.OpALoad)
			a.GetField(field)
			a.Load(4).Op(jvm.OpAdd).Store(4)
		case r < m.FieldRead+m.FieldWrite:
			// pool[slot].f = acc
			a.Load(1).Const(int64(slot)).Op(jvm.OpALoad)
			a.Load(4).PutField(field)
		case r < m.FieldRead+m.FieldWrite+m.ArrayOps:
			// acc += len(pool); pool[slot2] = pool[slot]
			a.Load(1).Op(jvm.OpArrayLen).Load(4).Op(jvm.OpAdd).Store(4)
			a.Load(1).Const(int64(rng.Intn(m.PoolSize))).
				Load(1).Const(int64(slot)).Op(jvm.OpALoad).
				Op(jvm.OpAStore)
		case r < m.FieldRead+m.FieldWrite+m.ArrayOps+m.Alloc:
			// pool[slot] = new obj; obj.f = acc
			a.New(nFields).Store(3)
			a.Load(3).Load(4).PutField(field)
			a.Load(1).Const(int64(slot)).Load(3).Op(jvm.OpAStore)
		default:
			// acc = acc*31 + slot
			a.Load(4).Const(31).Op(jvm.OpMul).Const(int64(slot)).Op(jvm.OpAdd).Store(4)
		}
	}
}

// Run executes the workload for iters loop iterations under the given
// compiler options and returns the checksum and machine statistics.
func Run(m Mix, iters int, opts jvm.CompileOptions) (int64, jvm.RunStats, error) {
	p, err := Build(m)
	if err != nil {
		return 0, jvm.RunStats{}, err
	}
	mc, err := jvm.NewMachine(p, opts)
	if err != nil {
		return 0, jvm.RunStats{}, err
	}
	th, err := jvm.HostThread(p)
	if err != nil {
		return 0, jvm.RunStats{}, err
	}
	v, err := mc.Call(th, "run", jvm.IntV(int64(iters)))
	if err != nil {
		return 0, jvm.RunStats{}, err
	}
	return v.Int(), mc.Stats(), nil
}
