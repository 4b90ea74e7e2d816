// Command laminar-govet checks the Laminar kernel's own Go sources
// against the invariants the runtime cannot verify for itself:
//
//	lockorder   lock acquisitions respect the task→file→inode order
//	failclosed  enforcement error paths never swallow errors as nil
//
// Usage:
//
//	laminar-govet [-json] [dir ...]
//
// With no directories it checks the current tree. Exit status is 0 when
// clean, 1 when any finding is reported, 2 on usage or load errors.
// -json emits the findings as a JSON array (CI artifact format).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"laminar/internal/govet"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: laminar-govet [-json] [dir ...]\n\nAnalyzers:\n")
		for _, a := range govet.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"."}
	}

	findings := []govet.Finding{}
	for _, dir := range dirs {
		fs, err := govet.RunDir(dir, govet.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "laminar-govet:", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "laminar-govet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Printf("laminar-govet: %d finding(s)\n", len(findings))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
