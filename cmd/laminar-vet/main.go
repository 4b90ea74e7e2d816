// Command laminar-vet is the static analysis companion to laminar-asm: it
// checks MiniJVM programs against the §5.1 security-region restrictions
// without running them, prints the interprocedural summaries the
// barrier-elimination pass computes, and explains every keep/eliminate
// decision the compiler would make.
//
//	laminar-vet vet [-json] [-strict] prog.mjvm [more.mjvm ...]
//	laminar-vet summaries prog.mjvm             # per-method dataflow summaries
//	laminar-vet explain prog.mjvm [-method m]   # per-site barrier decisions
//
// vet exits 1 when any non-advisory finding (or verification error) is
// reported, so it works as a CI gate; -json emits the findings as a JSON
// array (stable rule IDs, method@pc locations) for machine consumption.
// Findings are conservative: every access that is guaranteed to be
// denied at runtime is flagged, and a small documented set of
// risky-but-legal patterns is reported as advisory.
//
// Rule IDs (stable, for CI filters):
//
//	verify                        the program fails the §5.1 verifier
//	region-returns-value          security region returns a value
//	region-param-write            region writes a parameter slot
//	region-param-value-use        region uses a parameter as a plain value
//	region-no-catch               region lacks a catch block (advisory)
//	region-static-read-integrity  static read guaranteed denied (integrity)
//	region-static-write-secrecy   static write guaranteed denied (secrecy)
//	region-ref-escape             reference escapes its region
//	region-outer-write            write to outer object denied (secrecy)
//	region-outer-read             read of outer object denied (integrity)
//	region-no-exit                region cannot exit normally
//	robust-declassification       low-integrity data influences the data,
//	                              scope, or destination of a declassifier
//	transparent-endorsement       secret data influences an endorsement
//	                              decision or a branch guarding one
//	implicit-flow-fanout          branch on secret data selects between
//	                              distinguishable public effects
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"laminar/internal/jvm"
	"laminar/internal/jvm/analysis"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd := os.Args[1]
	switch cmd {
	case "vet":
		os.Exit(runVet(os.Args[2:]))
	case "summaries":
		os.Exit(runSummaries(os.Args[2:]))
	case "explain":
		os.Exit(runExplain(os.Args[2:]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: laminar-vet vet|summaries|explain <file.mjvm> [flags]")
	os.Exit(2)
}

// load parses one source file. Verification is left to the caller: vet
// reports verifier rejections as findings, the other subcommands require
// a verifiable program.
func load(path string) (*jvm.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := jvm.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}

// jsonFinding is the machine-readable finding schema (-json). Field
// names are part of the CI contract; keep them stable.
type jsonFinding struct {
	File     string `json:"file"`
	Method   string `json:"method,omitempty"`
	PC       int    `json:"pc"`
	InCatch  bool   `json:"inCatch,omitempty"`
	Rule     string `json:"rule"`
	Advisory bool   `json:"advisory,omitempty"`
	Msg      string `json:"msg"`
}

// runVet lints every named file — the structural region rules (Lint) and
// the interprocedural taint rules (LintTaint) — and prints findings one
// per line prefixed with the file name, or as a JSON array with -json.
// Exit status 1 when any hard (non-advisory) finding or verification
// failure is seen.
func runVet(args []string) int {
	fs := flag.NewFlagSet("laminar-vet vet", flag.ExitOnError)
	strict := fs.Bool("strict", false, "treat advisory findings as errors")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	hard := 0
	out := []jsonFinding{}
	report := func(jf jsonFinding) {
		switch {
		case *asJSON:
			out = append(out, jf)
		case jf.Method == "": // file-level finding (verifier rejection)
			fmt.Printf("%s: [%s] %s\n", jf.File, jf.Rule, jf.Msg)
		default:
			f := analysis.Finding{Method: jf.Method, PC: jf.PC, InCatch: jf.InCatch,
				Rule: jf.Rule, Advisory: jf.Advisory, Msg: jf.Msg}
			fmt.Printf("%s: %s\n", jf.File, f)
		}
		if !jf.Advisory || *strict {
			hard++
		}
	}
	for _, path := range fs.Args() {
		prog, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "laminar-vet:", err)
			hard++
			continue
		}
		// A verifier rejection is itself a finding: the structural
		// restrictions (§5.1) overlap with the lint rules, and vet must
		// not crash on programs the runtime would refuse to load.
		if err := prog.Verify(); err != nil {
			report(jsonFinding{File: path, PC: -1, Rule: "verify", Msg: err.Error()})
			continue
		}
		for _, f := range analysis.Lint(prog) {
			report(jsonFinding{File: path, Method: f.Method, PC: f.PC,
				InCatch: f.InCatch, Rule: f.Rule, Advisory: f.Advisory, Msg: f.Msg})
		}
		for _, f := range analysis.LintTaint(prog) {
			report(jsonFinding{File: path, Method: f.Method, PC: f.PC,
				InCatch: f.InCatch, Rule: f.Rule, Advisory: f.Advisory, Msg: f.Msg})
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-vet:", err)
			return 1
		}
	}
	if hard > 0 {
		return 1
	}
	return 0
}

// factString renders fact bits as rw / r- / -w / --.
func factString(bits uint8) string {
	b := []byte("--")
	if bits&jvm.FactRead != 0 {
		b[0] = 'r'
	}
	if bits&jvm.FactWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

func factList(facts []uint8) string {
	if len(facts) == 0 {
		return "-"
	}
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = factString(f)
	}
	return strings.Join(parts, ",")
}

// runSummaries prints the per-method interprocedural summary table.
func runSummaries(args []string) int {
	fs := flag.NewFlagSet("laminar-vet summaries", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "laminar-vet:", err)
		return 1
	}
	res, err := analysis.Attach(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laminar-vet:", err)
		return 1
	}
	fmt.Printf("%-16s %-10s %-12s %-6s %-8s %-12s %s\n",
		"METHOD", "KIND", "ENSURES", "RET", "STATICS", "ENTRY", "BARRIER-FREE")
	for i, m := range prog.Methods {
		kind := "method"
		if m.Secure != nil {
			kind = "region"
		}
		s := res.Summaries[i]
		free := ""
		if s.BarrierFree {
			free = "yes"
		}
		fmt.Printf("%-16s %-10s %-12s %-6s %-8s %-12s %s\n",
			m.Name, kind,
			factList(s.Ensures), factString(s.Return), factString(s.Statics),
			factList(s.EntryChecked), free)
	}
	return 0
}

// runExplain prints the keep/eliminate decision and its reason for every
// barrier site, using the same dataflow pass the compiler runs.
func runExplain(args []string) int {
	fs := flag.NewFlagSet("laminar-vet explain", flag.ExitOnError)
	method := fs.String("method", "", "restrict output to one method")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	prog, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "laminar-vet:", err)
		return 1
	}
	res, err := analysis.Attach(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laminar-vet:", err)
		return 1
	}
	for i, m := range prog.Methods {
		if *method != "" && m.Name != *method {
			continue
		}
		// Invoke-reached code assumes the caller-proven entry facts;
		// secure methods and host entries assume none.
		var entry []uint8
		if m.Secure == nil {
			entry = res.Summaries[i].EntryChecked
		}
		decisions := prog.BarrierDecisions(m, entry)
		if len(decisions) == 0 {
			continue
		}
		fmt.Printf("%s:\n", m.Name)
		for _, d := range decisions {
			verdict := "eliminate"
			if d.Kept {
				verdict = "keep"
			}
			fmt.Printf("  @%-4d %-12s %-12s %-9s %s\n", d.PC, d.Op, d.Kind, verdict, d.Reason)
		}
	}
	return 0
}
