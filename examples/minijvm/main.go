// MiniJVM walkthrough: the paper's Figure 7 — summing two students' marks
// under different secrecy tags, then declassifying the sum — written in
// MiniJVM text assembly and executed under each barrier configuration.
// The disassembly of the compiled region method shows exactly where the
// compiler placed its barriers.
//
//	go run ./examples/minijvm
package main

import (
	"fmt"
	"log"

	"laminar/internal/jvm"
	"laminar/internal/rt"
)

// Figure 7, §5.1. Tags: 1 = s1 (student 1), 2 = s2 (student 2). The
// secure method runs with {S(s1,s2)} and the declassification capability
// for both; it writes the sum into static 0 through a nested empty-label
// region (method "publish"), mirroring credentialsNew.
const figure7 = `
statics 1

; sum = student1.marks + student2.marks, inside {S(s1,s2), C(s1-,s2-)};
; the aggregate object takes the region's labels at allocation (L4 of
; Figure 7), visible as the alloc barrier in the compiled form.
secure method sumMarks args=2 locals=4 secrecy=1,2 minus=1,2
    load 0
    getfield 0
    load 1
    getfield 0
    add
    store 2
    new 1
    store 3
    load 3
    load 2
    putfield 0
    return
catch:
    return
end

; the nested declassification region: empty labels, both minus caps
secure method publish args=1 locals=1 minus=1,2
    load 0
    getfield 0
    putstatic 0
    return
catch:
    return
end
`

func main() {
	prog, err := jvm.Parse(figure7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source:")
	fmt.Print(prog.Dump())

	for _, mode := range []jvm.BarrierMode{jvm.BarrierNone, jvm.BarrierStatic, jvm.BarrierDynamic} {
		prog.ResetCompilation()
		rep, err := prog.CompileAll(jvm.CompileOptions{Mode: mode, Optimize: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mode %-8s -> %3d instrs, %2d barriers emitted, %2d elided\n",
			mode, rep.InstrsOut, rep.BarriersEmitted, rep.BarriersElided)
	}

	// Execute under static barriers with host-built labeled objects.
	prog.ResetCompilation()
	mc, err := jvm.NewMachine(prog, jvm.CompileOptions{Mode: jvm.BarrierStatic})
	if err != nil {
		log.Fatal(err)
	}
	// The thread is an rt thread, and its kernel task is the principal:
	// HostThread grants the task the credentials the program's secure
	// methods name (t1+, t2+, t1-, t2-), and rt judges each outermost
	// region entry against them.
	th, err := jvm.HostThread(prog)
	if err != nil {
		log.Fatal(err)
	}
	// The host (playing the professor) would hand labeled student objects
	// to sumMarks. A MiniJVM object takes labels only from the allocation
	// barrier inside a region, so here we show the compiled form instead
	// and run the declassifier on an unlabeled holder.
	holder := hostObject(th, 42+35)
	if _, err := mc.Call(th, "publish", holder); err != nil {
		log.Fatal(err)
	}
	fmt.Println("declassified sum in static 0:", mc.Static(0).Int())
	st := mc.Stats()
	fmt.Printf("stats: %d instructions, %d barrier checks, %d regions\n",
		st.Instructions, st.BarrierChecks, st.RegionsEntered)
}

// hostObject builds a one-field object holding v, running on th.
func hostObject(th *rt.Thread, v int64) jvm.Value {
	p := jvm.NewProgram(0)
	mk := &jvm.Method{Name: "mk", NArgs: 0, NLocal: 1}
	p.Add(mk)
	mk.Code = jvm.NewAsm().
		New(1).Store(0).
		Load(0).Const(v).PutField(0).
		Load(0).Emit(jvm.OpReturnVal, 0).MustBuild()
	mc, err := jvm.NewMachine(p, jvm.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := mc.Call(th, "mk")
	if err != nil {
		log.Fatal(err)
	}
	return out
}
