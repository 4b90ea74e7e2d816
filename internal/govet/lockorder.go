package govet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// lockRank orders the kernel's lock families per the documented
// hierarchy (internal/kernel/locking.go): task shards strictly before
// file locks strictly before inode locks. Acquiring a lower-ranked lock
// while a higher-ranked one is held inverts the order and can deadlock
// against any thread following the documented one.
var lockRank = map[string]int{
	"begin":           1,
	"begin2":          1,
	"WithTasksLocked": 1,
	"lockFile":        2,
	"lockInode":       3,
	"rlockInode":      3,
}

var lockRankName = [...]string{1: "task", 2: "file", 3: "inode"}

// LockOrder flags lock acquisitions that appear after a defer-held
// acquisition of a higher rank in the same function scope. Every guard
// returns the lock it took. Defer-held locks (`defer k.begin(t).Unlock()`)
// are provably held until the scope returns, so any later lower-rank
// acquire is an order inversion; the assigned form
// (`held := k.lockInode(i)`) may be released early and is only treated
// as the later acquire, never the holder.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions must respect the task→file→inode order",
	AppliesTo: func(path string) bool {
		return strings.Contains(filepath.ToSlash(path), "internal/kernel/")
	},
	Run: runLockOrder,
}

// acquireCall extracts the lock rank from a call expression of the form
// x.<lockFn>(...), if any.
func acquireCall(call *ast.CallExpr) (string, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	r, ok := lockRank[sel.Sel.Name]
	return sel.Sel.Name, r, ok
}

func runLockOrder(f *File) []Finding {
	var out []Finding
	for _, sc := range f.scopes() {
		type held struct {
			pos  token.Pos
			name string
			rank int
		}
		var deferred []held
		report := func(pos token.Pos, name string, rank int, h held) {
			if f.suppressed("lockorder", &posNode{pos}, sc.decl) {
				return
			}
			out = append(out, Finding{
				Analyzer: "lockorder",
				File:     f.Path,
				Line:     f.Fset.Position(pos).Line,
				Func:     sc.name,
				Msg: fmt.Sprintf("%s acquires the %s lock (%s) after holding the %s lock (%s at line %d): order is task→file→inode",
					sc.name, lockRankName[rank], name, lockRankName[h.rank], h.name, f.Fset.Position(h.pos).Line),
			})
		}
		walkScope(sc.body, func(n ast.Node) bool {
			var call *ast.CallExpr
			isDefer := false
			descend := true
			switch st := n.(type) {
			case *ast.DeferStmt:
				// defer k.begin(t).Unlock() — the acquire is the
				// receiver. Skip children so it is not revisited.
				if sel, ok := st.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Unlock" {
					if inner, ok := sel.X.(*ast.CallExpr); ok {
						call = inner
						isDefer = true
						descend = false
					}
				}
			case *ast.CallExpr:
				call = st
			}
			if call == nil {
				return true
			}
			name, rank, ok := acquireCall(call)
			if !ok {
				return descend
			}
			for _, h := range deferred {
				if h.rank > rank && h.pos < call.Pos() {
					report(call.Pos(), name, rank, h)
					break
				}
			}
			if isDefer {
				deferred = append(deferred, held{pos: call.Pos(), name: name, rank: rank})
			}
			return descend
		})
	}
	return out
}

// posNode adapts a bare position to ast.Node for directive lookup.
type posNode struct{ pos token.Pos }

func (p *posNode) Pos() token.Pos { return p.pos }
func (p *posNode) End() token.Pos { return p.pos }
