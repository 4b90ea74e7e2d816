// Package govet is a stdlib-only static-analysis mini framework for the
// Laminar kernel's own Go sources, with two analyzers proving the
// invariants the runtime cannot check for itself:
//
//	lockorder   lock acquisitions respect the strict task→file→inode
//	            order (internal/kernel/locking.go), so the sharded
//	            locking plan stays deadlock-free.
//	failclosed  error paths in the enforcement packages (lsm, netlabel,
//	            cluster) must not swallow a non-nil error by returning
//	            nil — fail-open enforcement is a silent leak.
//
// The framework deliberately avoids golang.org/x/tools: analyzers work
// on single-file syntax (go/parser + go/ast), which is all these
// invariants need, and keeps the checker dependency-free so it can gate
// CI before anything else builds.
//
// Suppression is explicit and auditable: a `//govet:<name>` directive on
// the flagged line, the line above it, or in the enclosing function's
// doc comment silences that analyzer there. The directives in tree:
//
//	//govet:failopen  failclosed: the nil return IS the enforcement
//	                  decision (e.g. silent-drop pipe semantics).
package govet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer report. Field names are part of the CI JSON
// contract; keep them stable.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Func     string `json:"func,omitempty"`
	Msg      string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Msg)
}

// File is one parsed source file.
type File struct {
	Path string
	Fset *token.FileSet
	AST  *ast.File
}

// Analyzer is one invariant checker. Run receives a single parsed file
// and returns its findings; AppliesTo (nil = everywhere) scopes the
// analyzer to the packages whose invariant it owns.
type Analyzer struct {
	Name      string
	Doc       string
	AppliesTo func(path string) bool
	Run       func(f *File) []Finding
}

// Analyzers returns the full checker suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, FailClosed}
}

// ParseSource parses one file from memory (fixtures, seeded mutations).
func ParseSource(path, src string) (*File, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &File{Path: path, Fset: fset, AST: af}, nil
}

// ParseFile parses one file from disk.
func ParseFile(path string) (*File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSource(path, string(src))
}

// LoadDir parses every non-test .go file under root, skipping vendored
// and generated trees.
func LoadDir(root string) ([]*File, error) {
	var out []*File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := ParseFile(path)
		if perr != nil {
			return fmt.Errorf("%s: %w", path, perr)
		}
		out = append(out, f)
		return nil
	})
	return out, err
}

// RunFiles applies each analyzer to every file it applies to and returns
// the findings sorted by file, line, analyzer.
func RunFiles(files []*File, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, f := range files {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(f.Path) {
				continue
			}
			out = append(out, a.Run(f)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// RunDir is LoadDir + RunFiles.
func RunDir(root string, analyzers []*Analyzer) ([]Finding, error) {
	files, err := LoadDir(root)
	if err != nil {
		return nil, err
	}
	return RunFiles(files, analyzers), nil
}

// line returns n's 1-based source line.
func (f *File) line(n ast.Node) int { return f.Fset.Position(n.Pos()).Line }

// directiveLines collects the lines a `//govet:<name>` directive covers:
// the directive's own line plus the last line of its comment group, so a
// directive opening a multi-line explanation still anchors to the
// statement below the group.
func (f *File) directiveLines(name string) map[int]bool {
	want := "govet:" + name
	out := make(map[int]bool)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, want) {
				out[f.Fset.Position(c.Pos()).Line] = true
				out[f.Fset.Position(cg.End()).Line] = true
			}
		}
	}
	return out
}

// suppressed reports whether the directive silences a finding at node n:
// the directive sits on n's line, the line above, or in the enclosing
// function's doc comment.
func (f *File) suppressed(name string, n ast.Node, enclosing *ast.FuncDecl) bool {
	if enclosing != nil && enclosing.Doc != nil &&
		strings.Contains(enclosing.Doc.Text(), "govet:"+name) {
		return true
	}
	lines := f.directiveLines(name)
	ln := f.line(n)
	return lines[ln] || lines[ln-1]
}

// scope is one function body: a FuncDecl or a FuncLit nested inside one.
// Analyzers that reason "later in the same function" iterate scopes.
type scope struct {
	name string
	decl *ast.FuncDecl // enclosing declaration (for doc directives)
	body *ast.BlockStmt
}

// scopes enumerates every function scope in the file, innermost FuncLits
// as their own entries.
func (f *File) scopes() []scope {
	var out []scope
	for _, d := range f.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, scope{name: fd.Name.Name, decl: fd, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, scope{name: fd.Name.Name + " (func literal)", decl: fd, body: fl.Body})
			}
			return true
		})
	}
	return out
}

// walkScope visits the statements of one scope WITHOUT descending into
// nested function literals (those are their own scopes).
func walkScope(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}
