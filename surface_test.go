package laminar_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// surfaceAllowlist names the exported functions and methods that no
// non-test file outside their package uses, and the struct fields that
// no non-test file reads, yet stay, each with the reason. Keys are
// "dir.Func", "dir.Type.Method" or "dir.Type.Field", with dir relative to
// the module root.
var surfaceAllowlist = map[string]string{
	// Kernel syscalls.
	"internal/kernel.Kernel.SigPending":          "kernel syscall: the pending-signal query",
	"internal/kernel.Kernel.SocketpairLabeled":   "kernel syscall: socketpair whose connection carries explicit labels",
	"internal/kernel.Kernel.DropLabelTCB":        "kernel syscall: drop_label_tcb, the trusted label clear the module restricts to tcb-tagged callers",
	"internal/kernel.Kernel.GetXattr":            "kernel syscall: getxattr, which reads the persisted label records back",
	"internal/kernel.Kernel.RestoreCapabilities": "kernel syscall: restore_capabilities, the undo of a temporary drop_capabilities",

	// The stat syscall's result: what a caller may inspect, read or not.
	"internal/kernel.Stat.Ino":   statReason,
	"internal/kernel.Stat.Type":  statReason,
	"internal/kernel.Stat.Mode":  statReason,
	"internal/kernel.Stat.Size":  statReason,
	"internal/kernel.Stat.Nlink": statReason,

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
	"internal/rt.Region.Labels":                 "paper API (Figure 2): getCurrentLabel, the region's secrecy and integrity labels",
	"internal/rt.Object.Labels":                 "paper API: an object's immutable label pair (§4.2), changed only by copyAndLabel",
	"internal/rt.Thread.Set":                    "heap field write through the dynamic barrier (§5.1); the write half of Thread.Get",
	"internal/rt.Thread.SetIndex":               "heap element write through the dynamic barrier (§5.1); the write half of Thread.Index",
	"internal/rt.Region.CreateFileLabeled":      "paper API (§5.2): create_file_labeled from a region",
	"internal/rt.Region.Send":                   "socket send from a region; illegal flows drop silently (§5.2), the companion of Socketpair",
	"internal/rt.Region.Recv":                   "socket receive from a region under its labels, the companion of Socketpair",

	// Seams that oracles in other packages use.
	"internal/budget.WithInjector":              "ledger option: the budgetdiff oracle faults the budget.ckpt.* sites through it",
	"internal/budget.WithStore":                 "ledger option: the budgetdiff oracle and the durable golden test persist facts through it",
	"internal/budget.ExhaustedError":            "the exhaustion denial's shape; the budgetdiff oracle builds its expected error with it",
	"internal/cluster.Cluster.Changes":          "the clusterdiff oracle reads every node's change log through it",
	"internal/cluster.Cluster.InjectStaleFrame": "the clusterdiff oracle checks stale-epoch rejection deterministically through it",
	"internal/telemetry.Replay":                 "the flight-recorder oracles (chaos_test.go, clusterdiff_test.go) replay dumped denials through it",
	"internal/jvm.Program.Source":               "the parser's round-trip renderer; FuzzParse checks Parse against it from package jvm_test",
	"internal/jvm.Program.Lookup":               "the interpreter's method lookup; the analysis and corpus tests find methods by name with it",
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
	"internal/declass.Registry.Load":        declassReason,
	"internal/declass.Registry.Invoke":      declassReason,
}

const statReason = "a field of the stat syscall's result"

const declassReason = "§3.3 endorsed declassifier modules; no caller until the calendar declassifies through a Registry (ROADMAP item 17), a behaviour change left to its own change"

// implicitIfaces declares the interfaces whose methods the standard
// library calls without a selector in this module: fmt calls Error and
// String, errors.Is/As/Unwrap call Unwrap. A method that implements one
// of them counts as used.
const implicitIfaces = `package implicit

type (
	errorer        interface{ Error() string }
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	stringer       interface{ String() string }
)
`

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList runs `go list -export -deps -json ./...` in dir: every package
// the module builds, dependencies first, each with its export data.
func goList(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// surfaceScan is what one type-checked pass over the module's non-test
// sources found.
type surfaceScan struct {
	pkgs, files int
	decls       map[string]string // key → position of each exported func or method outside package main
	fields      map[string]string // key → position of each checked struct field
	unused      []string          // funcs and methods no non-test file outside their package uses
	unread      []string          // fields no non-test file reads
	testNames   map[string]bool   // Test*, Benchmark* and Fuzz* functions the module's _test.go files declare
}

// scanner holds the state of one scan while it walks the packages.
type scanner struct {
	fset *token.FileSet
	out  surfaceScan

	funcKey   map[*types.Func]string
	fieldKey  map[*types.Var]string        // checked fields
	owner     map[*types.Var]*types.Struct // field → the struct that declares it
	used      map[*types.Func]bool         // selected by a non-test file outside its package
	calls     map[*types.Func]bool         // interface methods some non-test file selects
	read      map[*types.Var]bool
	compared  map[*types.Struct]bool // structs used as map keys or compared with ==
	typeNames map[*types.Func]*types.Named
}

// scanSurface loads the module and perfbench with `go list -export
// -deps -json`, type-checks every non-test package of both from source
// (standard-library imports come from the listed export data, module
// imports from the packages already checked, so each declaration is one
// object) and resolves every use of a function, method or field to that
// object. An exported function or method outside package main is unused
// unless a non-test file outside its package selects it, or it
// implements an interface method that some non-test file selects or that
// the standard library calls (implicitIfaces). A struct field declared
// outside perfbench is unread unless some non-test file reads it: an
// assignment's left-hand side, ++/-- and a keyed composite literal write
// a field, and every other use reads it. Blank fields, tagged fields and
// the fields of structs used as map keys or compared with == are not
// checked, because reflection or comparison reads them; nor are
// embedded fields, which promoted selectors read without naming them.
func scanSurface(t *testing.T, root string) surfaceScan {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	s := &scanner{
		fset:      token.NewFileSet(),
		funcKey:   map[*types.Func]string{},
		fieldKey:  map[*types.Var]string{},
		owner:     map[*types.Var]*types.Struct{},
		used:      map[*types.Func]bool{},
		calls:     map[*types.Func]bool{},
		read:      map[*types.Var]bool{},
		compared:  map[*types.Struct]bool{},
		typeNames: map[*types.Func]*types.Named{},
	}
	s.out.decls = map[string]string{}
	s.out.fields = map[string]string{}
	s.out.testNames = map[string]bool{}

	listed := append(goList(t, root), goList(t, filepath.Join(root, "perfbench"))...)
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, os.ErrNotExist
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		s.collectTestNames(t, p)
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		s.out.pkgs++
		s.out.files += len(files)
		dir, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		dir = filepath.ToSlash(dir)
		inPerfbench := dir == "perfbench" || strings.HasPrefix(dir, "perfbench/")
		for _, f := range files {
			s.declare(f, info, dir, pkg, inPerfbench)
		}
		s.resolve(files, info, pkg.Path())
	}
	s.implicit(t)

	for fn, key := range s.funcKey {
		if !s.used[fn] && !s.implements(fn) {
			s.out.unused = append(s.out.unused, key)
		}
	}
	for v, key := range s.fieldKey {
		if !s.read[v] && !s.compared[s.owner[v]] {
			s.out.unread = append(s.out.unread, key)
		}
	}
	sort.Strings(s.out.unused)
	sort.Strings(s.out.unread)
	return s.out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// testFuncName matches the declarations `go test` runs.
var testFuncName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)

// collectTestNames records the Test, Benchmark and Fuzz functions that
// p's _test.go files declare.
func (s *scanner) collectTestNames(t *testing.T, p listedPkg) {
	t.Helper()
	for _, name := range append(p.TestGoFiles, p.XTestGoFiles...) {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncName.MatchString(fn.Name.Name) {
				s.out.testNames[fn.Name.Name] = true
			}
		}
	}
}

// declare records the exported functions and methods of f (outside
// package main) and the struct fields it declares (outside perfbench).
func (s *scanner) declare(f *ast.File, info *types.Info, dir string, pkg *types.Package, inPerfbench bool) {
	if pkg.Name() != "main" {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			key := dir + "."
			if fd.Recv != nil {
				named := recvNamed(fn)
				if !named.Obj().Exported() {
					continue // reachable from outside only through an interface
				}
				s.typeNames[fn] = named
				key += named.Obj().Name() + "."
			}
			key += fd.Name.Name
			s.funcKey[fn] = key
			s.out.decls[key] = s.fset.Position(fd.Pos()).String()
		}
	}
	if inPerfbench {
		return
	}
	// owner names each struct type by its nearest enclosing type
	// declaration, or by its enclosing function when it has none.
	var owners []string
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			owners = owners[:len(owners)-1]
			return true
		}
		name := ""
		switch n := n.(type) {
		case *ast.TypeSpec:
			name = n.Name.Name
		case *ast.FuncDecl:
			name = n.Name.Name
		case *ast.ValueSpec:
			name = n.Names[0].Name
		case *ast.StructType:
			st := info.Types[n].Type.(*types.Struct)
			for _, fld := range n.Fields.List {
				if fld.Tag != nil {
					continue
				}
				for _, id := range fld.Names {
					if id.Name == "_" {
						continue
					}
					v := info.Defs[id].(*types.Var)
					key := dir + "." + owners[len(owners)-1] + "." + id.Name
					s.fieldKey[v] = key
					s.owner[v] = st
					s.out.fields[key] = s.fset.Position(id.Pos()).String()
				}
			}
		}
		if name == "" && len(owners) > 0 {
			name = owners[len(owners)-1]
		}
		owners = append(owners, name)
		return true
	})
}

// recvNamed is the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// resolve records the uses in files, the non-test files of package
// path: the functions and methods they select from other packages, the
// interface methods they select, the fields they read and the structs
// they compare.
func (s *scanner) resolve(files []*ast.File, info *types.Info, path string) {
	writes := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lhs(n.Key)
				if n.Value != nil {
					lhs(n.Value)
				}
			}
		case *ast.CompositeLit:
			if _, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						writes[kv.Key.(*ast.Ident)] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				s.markCompared(info.Types[n.X].Type)
				s.markCompared(info.Types[n.Y].Type)
			}
		case *ast.MapType:
			s.markCompared(info.Types[n.Key].Type)
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, visit)
	}
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			obj = obj.Origin()
			if sig := obj.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				s.calls[obj] = true
			} else if obj.Pkg() != nil && obj.Pkg().Path() != path {
				s.used[obj] = true
			}
		case *types.Var:
			if obj.IsField() && !writes[id] {
				s.read[obj.Origin()] = true
			}
		}
	}
}

// markCompared records that values of type t are compared, so every
// struct inside it has all its fields read.
func (s *scanner) markCompared(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if s.compared[u] {
			return
		}
		s.compared[u] = true
		for i := 0; i < u.NumFields(); i++ {
			s.markCompared(u.Field(i).Type())
		}
	case *types.Array:
		s.markCompared(u.Elem())
	}
}

// implicit adds the methods of implicitIfaces to the selected interface
// methods.
func (s *scanner) implicit(t *testing.T) {
	t.Helper()
	f, err := parser.ParseFile(s.fset, "implicit.go", implicitIfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("implicit", s.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pkg.Scope().Names() {
		iface := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			s.calls[iface.Method(i)] = true
		}
	}
}

// implements reports whether method fn, or its pointer receiver's
// method set, satisfies an interface whose method of the same name some
// caller selects.
func (s *scanner) implements(fn *types.Func) bool {
	named := s.typeNames[fn]
	if named == nil {
		return false
	}
	for m := range s.calls {
		if m.Name() != fn.Name() {
			continue
		}
		iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// TestExportedSurface keeps the exported surface to what programs use
// and the state to what programs read: every exported function and
// method must be used by some non-test file outside its package
// (perfbench, cmd and examples count), and every struct field read by
// some non-test file, or be on surfaceAllowlist with a reason. An
// allowlist entry that gains a caller or a reader, or no longer exists,
// fails too, so the list only shrinks by deletion.
func TestExportedSurface(t *testing.T) {
	start := time.Now()
	s := scanSurface(t, ".")
	t.Logf("type-checked %d packages (%d files) in %v: %d exported funcs and methods, %d unused outside their package; %d fields, %d unread",
		s.pkgs, s.files, time.Since(start), len(s.decls), len(s.unused), len(s.fields), len(s.unread))

	// Non-vacuity: the scan must see the whole module and every
	// allowlisted declaration; an entry it cannot find is reported below.
	if s.pkgs < 40 || s.files < 100 || len(s.decls) < 300 || len(s.fields) < 500 {
		t.Fatalf("scan saw only %d packages, %d files, %d exported funcs and %d fields; go list or type-checking broken?",
			s.pkgs, s.files, len(s.decls), len(s.fields))
	}

	flagged := map[string]bool{}
	for _, k := range s.unused {
		flagged[k] = true
		if _, ok := surfaceAllowlist[k]; !ok {
			t.Errorf("%s: exported %s has no non-test caller outside its package; delete or unexport it, or allowlist it with a reason",
				s.decls[k], k)
		}
	}
	for _, k := range s.unread {
		flagged[k] = true
		if _, ok := surfaceAllowlist[k]; !ok {
			t.Errorf("%s: field %s is never read by non-test code; delete it with what writes it, or allowlist it with a reason",
				s.fields[k], k)
		}
	}
	for k, why := range surfaceAllowlist {
		switch {
		case strings.TrimSpace(why) == "":
			t.Errorf("allowlist entry %s has no reason", k)
		case s.decls[k] == "" && s.fields[k] == "":
			t.Errorf("allowlist entry %s no longer exists; drop it", k)
		case !flagged[k]:
			t.Errorf("allowlist entry %s now has a caller or reader; drop it", k)
		}
	}

	checkDesignCitations(t, s.testNames)
}

// citedTest matches a test function name DESIGN.md cites: after `-run`
// it is a pattern, and a trailing * makes it a prefix.
var citedTest = regexp.MustCompile(`(-run\s+)?\b((?:Test|Benchmark|Fuzz)\w*)(\*?)`)

// checkDesignCitations fails when DESIGN.md cites in backticks a Test,
// Benchmark or Fuzz function that no _test.go file in the module
// declares.
func checkDesignCitations(t *testing.T, declared map[string]bool) {
	t.Helper()
	if len(declared) < 500 {
		t.Fatalf("found only %d test functions; go list or parsing broken?", len(declared))
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	spans := strings.Split(string(doc), "`")
	cited := 0
	for i := 1; i < len(spans); i += 2 {
		for _, m := range citedTest.FindAllStringSubmatch(spans[i], -1) {
			cited++
			name, prefix := m[2], m[1] != "" || m[3] != ""
			if citationResolves(declared, name, prefix) {
				continue
			}
			t.Errorf("DESIGN.md cites `%s%s`, which no _test.go file declares; point it at the test that pins the claim", name, m[3])
		}
	}
	if cited < 40 {
		t.Errorf("DESIGN.md cites only %d test names; backtick split broken?", cited)
	}
}

func citationResolves(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}
