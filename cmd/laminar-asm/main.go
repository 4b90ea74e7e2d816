// Command laminar-asm assembles, disassembles and runs MiniJVM text
// programs — the compiler engineer's workbench for the barrier-inserting
// JIT.
//
//	laminar-asm run prog.mjvm -entry main -args 5,7 -mode static -opt
//	laminar-asm run prog.mjvm -opt=interproc -stats   # whole-program elimination
//	laminar-asm dis prog.mjvm                         # source disassembly
//	laminar-asm dis prog.mjvm -compiled               # compiled form with barriers
//
// The text format is documented in internal/jvm/parse.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
)

// optFlag parses -opt as a boolean with one extra spelling: bare -opt (or
// -opt=true) enables the intraprocedural elimination pass, -opt=interproc
// additionally attaches the whole-program summary analysis.
type optFlag struct {
	enabled   bool
	interproc bool
}

func (o *optFlag) String() string {
	switch {
	case o.interproc:
		return "interproc"
	case o.enabled:
		return "true"
	}
	return "false"
}

func (o *optFlag) Set(s string) error {
	switch s {
	case "interproc":
		o.enabled, o.interproc = true, true
	case "true", "":
		o.enabled, o.interproc = true, false
	case "false":
		o.enabled, o.interproc = false, false
	default:
		return fmt.Errorf("want true, false or interproc, got %q", s)
	}
	return nil
}

func (o *optFlag) IsBoolFlag() bool { return true }

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	fs := flag.NewFlagSet("laminar-asm", flag.ExitOnError)
	var opt optFlag
	var (
		mode     = fs.String("mode", "static", "barrier mode: none, static, dynamic")
		inline   = fs.Bool("inline", false, "inline small leaf methods")
		entry    = fs.String("entry", "main", "entry method")
		argList  = fs.String("args", "", "comma-separated integer arguments")
		budget   = fs.Uint64("budget", 10_000_000, "instruction budget (0 = unlimited)")
		compiled = fs.Bool("compiled", false, "dis: show the compiled form")
		stats    = fs.Bool("stats", false, "run: print machine statistics")
	)
	fs.Var(&opt, "opt", "barrier elimination: bare flag = intraprocedural, =interproc = whole-program")
	fs.Parse(os.Args[3:])

	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := jvm.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	opts := jvm.CompileOptions{Optimize: opt.enabled, Interproc: opt.interproc, Inline: *inline}
	switch *mode {
	case "none":
		opts.Mode = jvm.BarrierNone
	case "static":
		opts.Mode = jvm.BarrierStatic
	case "dynamic":
		opts.Mode = jvm.BarrierDynamic
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if opt.interproc {
		if _, err := analysis.Attach(prog); err != nil {
			fatal(err)
		}
	}

	switch cmd {
	case "run":
		mc, err := jvm.NewMachine(prog, opts)
		if err != nil {
			fatal(err)
		}
		mc.MaxInstructions = *budget
		var args []jvm.Value
		if *argList != "" {
			for _, s := range strings.Split(*argList, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
				if err != nil {
					fatal(fmt.Errorf("bad argument %q", s))
				}
				args = append(args, jvm.IntV(n))
			}
		}
		th, err := jvm.HostThread(prog)
		if err != nil {
			fatal(err)
		}
		v, err := mc.Call(th, *entry, args...)
		if err != nil {
			fatal(err)
		}
		fmt.Println(v)
		if *stats {
			st := mc.Stats()
			fmt.Fprintf(os.Stderr, "instructions=%d barrier-checks=%d context-checks=%d regions=%d violations=%d\n",
				st.Instructions, st.BarrierChecks, st.ContextChecks, st.RegionsEntered, st.Violations)
			rep := mc.CompileReport()
			fmt.Fprintf(os.Stderr, "compiled methods=%d instrs=%d->%d barriers=%d elided=%d inlined=%d\n",
				rep.Methods, rep.InstrsIn, rep.InstrsOut, rep.BarriersEmitted, rep.BarriersElided, rep.InlinedCalls)
			printBarrierStats(prog)
		}
	case "dis":
		if !*compiled {
			fmt.Print(prog.Dump())
			return
		}
		if _, err := prog.CompileAll(opts); err != nil {
			fatal(err)
		}
		fmt.Print(prog.Dump())
		printBarrierStats(prog)
	default:
		usage()
	}
}

// printBarrierStats writes the per-method barrier accounting table: sites
// before elimination, sites the dataflow pass removed, and barrier
// instructions actually emitted (allocation labeling included).
func printBarrierStats(prog *jvm.Program) {
	all := prog.BarrierStats()
	if len(all) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%-16s %-14s %6s %7s %8s %10s %s\n",
		"method", "variant", "sites", "elided", "emitted", "remaining", "")
	for _, s := range all {
		note := ""
		if s.BarrierFree {
			note = "barrier-free"
		}
		fmt.Fprintf(os.Stderr, "%-16s %-14s %6d %7d %8d %10d %s\n",
			s.Method, s.Variant, s.Sites, s.Elided, s.Emitted, s.Sites-s.Elided, note)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: laminar-asm run|dis <file.mjvm> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "laminar-asm:", err)
	os.Exit(1)
}
