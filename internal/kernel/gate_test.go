package kernel

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// TestEveryHookRunsThroughGate is the structural half of the hook
// guarantees: every error-returning SecurityModule method is called only
// inside a closure passed to Kernel.gate, and each is called there at
// least once. A call outside gate would skip the HookCalls count, fault
// injection and deny provenance — a silent-deny path. Type-checking the
// package's own sources keeps the check honest against new hooks, new
// call sites and aliases of the module value.
func TestEveryHookRunsThroughGate(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["kernel"].Files {
		files = append(files, f)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("laminar/internal/kernel", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}

	sec := pkg.Scope().Lookup("SecurityModule").Type()
	iface := sec.Underlying().(*types.Interface)
	errType := types.Universe.Lookup("error").Type()
	gated := map[string]bool{} // error-returning hook → called through gate
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		res := m.Type().(*types.Signature).Results()
		if res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), errType) {
			gated[m.Name()] = false
		}
	}
	if len(gated) < 10 {
		t.Fatalf("found only %d error-returning hooks in SecurityModule; type check broken?", len(gated))
	}

	// visit walks n; inGate is true inside a function literal passed to
	// gate.
	var visit func(n ast.Node, inGate bool)
	visit = func(n ast.Node, inGate bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil {
				return true
			}
			if s.Obj().Name() == "gate" && s.Obj().Pkg() == pkg {
				visit(sel.X, inGate)
				for _, a := range call.Args {
					_, lit := a.(*ast.FuncLit)
					visit(a, inGate || lit)
				}
				return false
			}
			if _, hook := gated[sel.Sel.Name]; hook && types.Identical(s.Recv(), sec) {
				if inGate {
					gated[sel.Sel.Name] = true
				} else {
					t.Errorf("%s: SecurityModule.%s called outside a closure passed to gate",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	for _, f := range files {
		visit(f, false)
	}
	for h, through := range gated {
		if !through {
			t.Errorf("SecurityModule.%s is never called through gate", h)
		}
	}
}

// TestHookGateAllocs pins the gate's cost discipline: an allowed hook
// allocates nothing whether the kernel has no recorder, a recorder at
// LevelOff, or one at LevelDeny — only the denial path allocates. The
// body is a seek and read of a regular file (one FilePermission hook),
// so it also pins the syscall entry, file and inode guards, which
// return the lock they hold rather than a release closure.
func TestHookGateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	var allocs []float64
	for _, level := range []telemetry.Level{noRecorder, telemetry.LevelOff, telemetry.LevelDeny} {
		k, init, fd := gateKernel(t, level)
		buf := make([]byte, 8)
		before := k.HookCalls()
		allocs = append(allocs, testing.AllocsPerRun(200, func() {
			if err := k.Seek(init, fd, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Read(init, fd, buf); err != nil {
				t.Fatal(err)
			}
		}))
		if k.HookCalls() == before {
			t.Fatal("seek and read ran no hook")
		}
	}
	t.Logf("allocs per seek and read (none, off, deny): %v", allocs)
	for _, a := range allocs {
		if a != 0 {
			t.Fatalf("allowed seek and read allocate (none, off, deny): %v, want 0 each", allocs)
		}
	}
}

// BenchmarkHookGate measures one allowed FilePermission hook through the
// gate with no recorder, a recorder at LevelOff and one at LevelDeny: the
// direct per-hook cost of the disabled and the deny-only paths.
func BenchmarkHookGate(b *testing.B) {
	for _, c := range []struct {
		name  string
		level telemetry.Level
	}{{"none", noRecorder}, {"off", telemetry.LevelOff}, {"deny", telemetry.LevelDeny}} {
		b.Run(c.name, func(b *testing.B) {
			k, init, fd := gateKernel(b, c.level)
			f, err := init.file(fd)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.filePermission(init, f, MayRead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// noRecorder asks gateKernel for a WithoutTelemetry kernel.
const noRecorder telemetry.Level = -1

// gateKernel boots a tagModule kernel with no recorder or a private
// recorder at level, and opens a readable one-byte regular file.
func gateKernel(tb testing.TB, level telemetry.Level) (*Kernel, *Task, FD) {
	tb.Helper()
	opts := []Option{WithSecurityModule(tagModule{}), WithoutTelemetry()}
	if level != noRecorder {
		rec := telemetry.NewRecorder()
		rec.SetLevel(level)
		opts = []Option{WithSecurityModule(tagModule{}), WithTelemetry(rec)}
	}
	k := New(opts...)
	init := k.InitTask()
	wfd, err := k.CreateFileLabeled(init, "/tmp/gate", 0o644, difc.Labels{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := k.Write(init, wfd, []byte("x")); err != nil {
		tb.Fatal(err)
	}
	fd, err := k.Open(init, "/tmp/gate", ORead)
	if err != nil {
		tb.Fatal(err)
	}
	return k, init, fd
}
