// Package analysis holds the whole-program analyses over MiniJVM
// bytecode. They run on package jvm's dataflow framework — jvm.BuildCFG,
// the worklist solver jvm.Solve and the stack tracer
// Program.StackSource — plus a call graph with bottom-up SCC iteration
// (this file). Its clients:
//
//   - interprocedural barrier summaries (summary.go): the summary table
//     ([]jvm.Summary), computed with package jvm's checked-facts problem
//     and attached to a jvm.Program so compilation with
//     CompileOptions.Interproc can eliminate barriers across calls;
//   - a static region-safety lint (lint.go) reporting §5.1 restriction
//     violations at analysis time instead of as runtime denials, from
//     the same checked-facts problem;
//   - a barrier-freedom prover (summary.go), which reuses the compiler's
//     own elimination pass so a "no barriers needed" verdict cannot drift
//     from what compilation actually does;
//   - the taint lint (taint.go) behind the robust-declassification,
//     transparent-endorsement and implicit-flow-fanout rules.
//
// The dependency is one-way: analysis imports jvm, never the reverse.
// Results cross back into the compiler through the summary table.
package analysis

import "laminar/internal/jvm"

// callGraph is the program's static call graph.
type callGraph struct {
	// Callees[mi] lists the methods mi invokes (deduplicated), including
	// from its catch block.
	Callees [][]int
	// Sites[mi] counts the invoke sites that target mi. Interprocedural
	// entry facts are the meet over exactly these sites; a method with no
	// sites is only reachable from the host and gets no entry facts.
	Sites []int
	// SCCs lists strongly connected components in bottom-up order:
	// callees appear before their callers, so iterating SCCs in slice
	// order sees every out-of-component callee summary finished.
	SCCs [][]int
}

// buildCallGraph scans every method's code and catch block.
func buildCallGraph(p *jvm.Program) *callGraph {
	n := len(p.Methods)
	g := &callGraph{
		Callees: make([][]int, n),
		Sites:   make([]int, n),
	}
	for mi, m := range p.Methods {
		seen := make(map[int]bool)
		scan := func(code []jvm.Instr) {
			for _, in := range code {
				if in.Op != jvm.OpInvoke {
					continue
				}
				callee := int(in.A)
				if callee < 0 || callee >= n {
					continue
				}
				g.Sites[callee]++
				if !seen[callee] {
					seen[callee] = true
					g.Callees[mi] = append(g.Callees[mi], callee)
				}
			}
		}
		scan(m.Code)
		if m.Secure != nil && m.Secure.Catch != nil {
			scan(m.Secure.Catch)
		}
	}
	g.SCCs = tarjan(n, g.Callees)
	return g
}

// tarjan computes strongly connected components. With edges pointing
// caller -> callee, Tarjan emits components in reverse topological order
// of the condensation, which is exactly the bottom-up (callee-first)
// order summary computation wants.
func tarjan(n int, edges [][]int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack []int
		sccs  [][]int
		next  int
	)
	var visit func(v int)
	visit = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if index[w] == unvisited {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			visit(v)
		}
	}
	return sccs
}
