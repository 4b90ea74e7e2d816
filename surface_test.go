package laminar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// stdlibMethods are the methods of the standard-library interfaces that
// types in this module implement or may implement (fmt.Stringer, error,
// io.Reader, sort.Interface, json.Marshaler, sync.Locker, ast.Node, ...).
// A method with one of these names may be called only through the
// interface, so the surface scan never reports it.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "WriteString": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Lock": true, "Unlock": true, "ServeHTTP": true, "Pos": true, "End": true,
}

// surfaceAllowlist names the exported functions and methods that no
// non-test file outside their package selects, yet stay exported, each
// with the reason. Keys are "dir.Func" or "dir.Type.Method", with dir
// relative to the module root.
var surfaceAllowlist = map[string]string{
	// Kernel syscalls.
	"internal/kernel.Kernel.SigPending":        "kernel syscall: the pending-signal query",
	"internal/kernel.Kernel.SocketpairLabeled": "kernel syscall: socketpair whose connection carries explicit labels",

	// The paper's API, reached through the laminar.Region and
	// laminar.Thread aliases in laminar.go.
	"internal/rt.Region.CreateAndAddCapability": "paper API (Figure 2): allocate a tag and grant both capabilities",
	"internal/rt.Region.RemoveCapability":       "paper API (Figure 2): drop a capability for the region or for good",
	"internal/rt.Thread.DropCapability":         "paper API: removeCapability with global=true outside any region",
	"internal/rt.Region.WriteFileVec":           "batched labeled write from a region: one label sync and one verdict per batch",
	"internal/rt.Region.Socketpair":             "socketpair from a region; the connection carries the region's labels",
	"internal/rt.Region.GetStatic":              "static-variable read from a region under the paper's static rules (§5.1)",
	"internal/rt.Region.SetStatic":              "static-variable write from a region under the paper's static rules (§5.1)",
	"internal/rt.Thread.GetStatic":              "static-variable read outside or inside a region (§5.1)",
	"internal/rt.Thread.SetStatic":              "static-variable write outside or inside a region (§5.1)",

	// Seams that oracles in other packages use.
	"internal/budget.WithInjector":              "ledger option: the budgetdiff oracle faults the budget.ckpt.* sites through it",
	"internal/budget.WithStore":                 "ledger option: the budgetdiff oracle and the durable golden test persist facts through it",
	"internal/budget.ExhaustedError":            "the exhaustion denial's shape; the budgetdiff oracle builds its expected error with it",
	"internal/cluster.Cluster.Changes":          "the clusterdiff oracle reads every node's change log through it",
	"internal/cluster.Cluster.InjectStaleFrame": "the clusterdiff oracle checks stale-epoch rejection deterministically through it",
	"internal/telemetry.Replay":                 "the flight-recorder oracles (chaos_test.go, clusterdiff_test.go) replay dumped denials through it",
	"internal/jvm.Program.Source":               "the parser's round-trip renderer; FuzzParse checks Parse against it from package jvm_test",
	"internal/jvm.Program.Lookup":               "the interpreter's method lookup; the analysis and corpus tests find methods by name with it",
	"internal/jvm.Obj.IsLabeled":                "the corpus oracle renders whether each result object lives in the labeled space",
	"internal/jvm/analysis.IsDeclassifier":      "the taint analysis's declassifier predicate; the corpus taint oracle classifies methods with it",
	"internal/jvm/analysis.IsEndorser":          "the taint analysis's endorser predicate; the corpus taint oracle classifies methods with it",
	"internal/jvm/corpus.Negative":              "test corpus: ill-formed programs the parser, verifier and fuzz tests of several packages share",
	"internal/jvm/corpus.Taint":                 "test corpus: taint fixtures the analysis, adversarial and transport tests share",
	"internal/lmbench.Suite":                    "the Table 2 benchmark list; bench_test.go runs each entry as its own Go benchmark",

	// Protocol behaviour DESIGN documents.
	"internal/cluster.Cluster.Drain": "the persistent drain change (stop intake, flush relays, announce departure), DESIGN §13",

	// Unsecured app variants, kept as the reference the secured ones are
	// tested against.
	"internal/apps/gradesheet.Unsecured.Average": "the original leaky endpoint: its test shows the unsecured policy lets a student read the class average",

	// internal/declass has no caller yet. ROADMAP item 17 prefers giving
	// it one (the calendar declassifying through a Registry), which
	// changes behaviour and so belongs in its own change.
	"internal/declass.NewModule":            declassReason,
	"internal/declass.NewRegistry":          declassReason,
	"internal/declass.Module.Endorsed":      declassReason,
	"internal/declass.Registry.RequiredTag": declassReason,
}

const declassReason = "§3.3 endorsed declassifier modules; no caller until the calendar declassifies through a Registry (ROADMAP item 17), a behaviour change left to its own change"

// surfaceScan is what one pass over the module's non-test sources found.
type surfaceScan struct {
	decls    map[string]string // key → position of each exported func or method outside package main
	unused   []string          // keys never selected outside their own package
	files    int
	selected int // distinct selector names seen
}

// scanSurface parses every non-test Go file under root (perfbench, cmd
// and examples included, testdata excluded) and reports each exported
// function or method, outside package main, whose name no file outside
// its directory selects. Names are matched without types, so a method
// counts as used when any type's method of that name is selected
// elsewhere, and a method whose name an interface in the module or the
// standard library declares is never reported: the scan only errs
// toward "used".
func scanSurface(t *testing.T, root string) surfaceScan {
	t.Helper()
	fset := token.NewFileSet()
	s := surfaceScan{decls: map[string]string{}}
	selectors := map[string]map[string]bool{} // name → dirs that select it
	ifaceMethods := map[string]bool{}
	type decl struct{ key, dir, name string }
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.files++
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ds := selectors[n.Sel.Name]
				if ds == nil {
					ds = map[string]bool{}
					selectors[n.Sel.Name] = ds
				}
				ds[dir] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		if f.Name.Name == "main" {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := dir + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			key += fn.Name.Name
			s.decls[key] = fset.Position(fn.Pos()).String()
			decls = append(decls, decl{key, dir, fn.Name.Name})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.selected = len(selectors)
	for _, d := range decls {
		if ifaceMethods[d.name] || stdlibMethods[d.name] {
			continue
		}
		used := false
		for dir := range selectors[d.name] {
			if dir != d.dir {
				used = true
				break
			}
		}
		if !used {
			s.unused = append(s.unused, d.key)
		}
	}
	sort.Strings(s.unused)
	return s
}

// recvName is the receiver's base type name: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestExportedSurface keeps the exported surface to what programs use:
// every exported function and method must be selected by some non-test
// file outside its package (perfbench, cmd and examples count), or be on
// surfaceAllowlist with a reason. An allowlist entry that gains a caller
// or no longer exists fails too, so the list only shrinks by deletion.
func TestExportedSurface(t *testing.T) {
	start := time.Now()
	s := scanSurface(t, ".")
	t.Logf("scanned %d files, %d exported funcs and methods, %d selector names in %v; %d unused outside their package",
		s.files, len(s.decls), s.selected, time.Since(start), len(s.unused))

	// Non-vacuity: the scan must see the whole module and every
	// allowlisted declaration; an entry it cannot find is reported below.
	if s.files < 100 || len(s.decls) < 300 || s.selected < 1000 {
		t.Fatalf("scan saw only %d files, %d exported funcs and %d selector names; walk or parse broken?",
			s.files, len(s.decls), s.selected)
	}

	unused := map[string]bool{}
	for _, k := range s.unused {
		unused[k] = true
		if _, ok := surfaceAllowlist[k]; !ok {
			t.Errorf("%s: exported %s has no non-test caller outside its package; delete or unexport it, or allowlist it with a reason",
				s.decls[k], k)
		}
	}
	for k, why := range surfaceAllowlist {
		switch {
		case strings.TrimSpace(why) == "":
			t.Errorf("allowlist entry %s has no reason", k)
		case s.decls[k] == "":
			t.Errorf("allowlist entry %s no longer exists; drop it", k)
		case !unused[k]:
			t.Errorf("allowlist entry %s now has a caller outside its package; drop it", k)
		}
	}
}
