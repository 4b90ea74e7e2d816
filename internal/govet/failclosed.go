package govet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// FailClosed flags the fail-open shape in the enforcement packages and
// in the record store they persist through: a `return nil` whose
// enclosing if-statement tested an error for non-nilness. Swallowing an
// error on an enforcement path converts a denial into an allow — a
// silent leak. Intentional silent-drop semantics (e.g. pipe capability
// writes, where success must not leak the verdict) carry a
// //govet:failopen directive at the return.
var FailClosed = &Analyzer{
	Name: "failclosed",
	Doc:  "enforcement error paths must not swallow errors by returning nil",
	AppliesTo: func(path string) bool {
		p := filepath.ToSlash(path)
		return strings.Contains(p, "internal/kernel/lsm/") ||
			strings.Contains(p, "internal/netlabel/") ||
			strings.Contains(p, "internal/cluster/") ||
			strings.Contains(p, "internal/budget/") ||
			strings.Contains(p, "internal/durable/")
	},
	Run: runFailClosed,
}

// errishIdent reports whether the expression is an identifier that looks
// like an error binding (err, werr, sendErr, ...).
func errishIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && strings.Contains(strings.ToLower(id.Name), "err")
}

// condTestsErrNotNil reports whether cond contains `<errish> != nil`.
func condTestsErrNotNil(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			x, y := b.X, b.Y
			if isNil(y) && errishIdent(x) || isNil(x) && errishIdent(y) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func runFailClosed(f *File) []Finding {
	var out []Finding
	for _, sc := range f.scopes() {
		// Stack of enclosing if-statements whose condition tests an error.
		walkScope(sc.body, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || !condTestsErrNotNil(ifs.Cond) {
				return true
			}
			// Look for `return nil` directly inside this error branch.
			// Nested ifs and function literals re-decide on their own
			// conditions, so they are not this branch's returns.
			ast.Inspect(ifs.Body, func(m ast.Node) bool {
				switch st := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.IfStmt:
					return false
				case *ast.ReturnStmt:
					if len(st.Results) == 1 && isNil(st.Results[0]) &&
						!f.suppressed("failopen", st, sc.decl) {
						out = append(out, Finding{
							Analyzer: "failclosed",
							File:     f.Path,
							Line:     f.line(st),
							Func:     sc.name,
							Msg: fmt.Sprintf("%s returns nil on an error path: enforcement must fail closed (annotate //govet:failopen if the silent success IS the decision)",
								sc.name),
						})
					}
				}
				return true
			})
			return true
		})
	}
	return out
}
