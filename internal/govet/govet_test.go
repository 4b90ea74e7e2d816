package govet

import (
	"testing"
)

func parse(t *testing.T, path, src string) *File {
	t.Helper()
	f, err := parseSource(path, src)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return f
}

func runOne(t *testing.T, a *Analyzer, src string) []Finding {
	t.Helper()
	// Use a path the analyzer applies to so fixtures exercise the same
	// code path as the real tree.
	return a.Run(parse(t, "internal/kernel/lsm/fixture.go", src))
}

// ---------------------------------------------------------------------------
// lockorder

func TestLockOrderFlagsInversion(t *testing.T) {
	src := `package kernel
func (k *K) bad(t *Task, i *Inode, f *File) {
	defer k.lockInode(i).Unlock()
	defer k.lockFile(f).Unlock()
}
`
	fs := runOne(t, LockOrder, src)
	if len(fs) != 1 || fs[0].Analyzer != "lockorder" {
		t.Fatalf("want 1 lockorder finding, got %v", fs)
	}
}

func TestLockOrderAcceptsDocumentedOrder(t *testing.T) {
	src := `package kernel
func (k *K) good(t *Task, i *Inode, f *File) {
	defer k.begin(t).Unlock()
	defer k.lockFile(f).Unlock()
	defer k.lockInode(i).Unlock()
}
`
	if fs := runOne(t, LockOrder, src); len(fs) != 0 {
		t.Fatalf("documented order must be clean, got %v", fs)
	}
}

func TestLockOrderAssignedFormNotHeld(t *testing.T) {
	// An assigned unlock may be released early; it must not count as a
	// holder for later acquisitions.
	src := `package kernel
func (k *K) early(t *Task, i *Inode) {
	held := k.lockInode(i)
	held.Unlock()
	defer k.begin(t).Unlock()
}
`
	if fs := runOne(t, LockOrder, src); len(fs) != 0 {
		t.Fatalf("assigned-form lock must not be treated as held, got %v", fs)
	}
}

func TestLockOrderDirectiveSuppresses(t *testing.T) {
	src := `package kernel
func (k *K) odd(t *Task, i *Inode, f *File) {
	defer k.lockInode(i).Unlock()
	//govet:lockorder
	defer k.lockFile(f).Unlock()
}
`
	if fs := runOne(t, LockOrder, src); len(fs) != 0 {
		t.Fatalf("directive should suppress, got %v", fs)
	}
}

// ---------------------------------------------------------------------------
// failclosed

func TestFailClosedScope(t *testing.T) {
	for path, want := range map[string]bool{
		"internal/kernel/lsm/persist.go": true,
		"internal/cluster/store.go":      true,
		"internal/budget/budget.go":      true,
		"internal/durable/durable.go":    true,
		"internal/eval/compiletime.go":   false,
	} {
		if got := FailClosed.AppliesTo(path); got != want {
			t.Errorf("failclosed applies to %s = %v, want %v", path, got, want)
		}
	}
}

func TestFailClosedFlagsSwallowedError(t *testing.T) {
	src := `package lsm
func (k *K) check(t *Task) error {
	if err := k.verify(t); err != nil {
		return nil
	}
	return nil
}
`
	fs := runOne(t, FailClosed, src)
	if len(fs) != 1 || fs[0].Analyzer != "failclosed" || fs[0].Line != 4 {
		t.Fatalf("want 1 failclosed finding at line 4, got %v", fs)
	}
}

func TestFailClosedAcceptsPropagatedError(t *testing.T) {
	src := `package lsm
func (k *K) check(t *Task) error {
	if err := k.verify(t); err != nil {
		return err
	}
	return nil
}
`
	if fs := runOne(t, FailClosed, src); len(fs) != 0 {
		t.Fatalf("propagating the error must be clean, got %v", fs)
	}
}

func TestFailClosedNestedIfReDecides(t *testing.T) {
	// A nested if re-decides on its own condition: its returns belong to
	// it, not to the outer error branch.
	src := `package lsm
func (k *K) check(t *Task) error {
	if err := k.verify(t); err != nil {
		if t.silent {
			return nil
		}
		return err
	}
	return nil
}
`
	if fs := runOne(t, FailClosed, src); len(fs) != 0 {
		t.Fatalf("nested-if returns must not be attributed to the error branch, got %v", fs)
	}
}

func TestFailClosedDirectiveSuppresses(t *testing.T) {
	src := `package lsm
func (k *K) drop(t *Task) error {
	if err := k.verify(t); err != nil {
		// Silent drop IS the decision here.
		//govet:failopen
		return nil
	}
	return nil
}
`
	if fs := runOne(t, FailClosed, src); len(fs) != 0 {
		t.Fatalf("failopen directive should suppress, got %v", fs)
	}
}

// A directive opening a multi-line explanation still covers the statement
// below the comment group.
func TestFailClosedDirectiveOpeningCommentGroup(t *testing.T) {
	src := `package lsm
func (k *K) drop(t *Task) error {
	if err := k.verify(t); err != nil {
		//govet:failopen — the silent success IS the decision: the caller
		// must not learn whether the flow was legal.
		return nil
	}
	return nil
}
`
	if fs := runOne(t, FailClosed, src); len(fs) != 0 {
		t.Fatalf("directive opening a comment group should suppress, got %v", fs)
	}
}

// A directive in the enclosing function's doc comment covers its body.
func TestFailClosedDocCommentDirective(t *testing.T) {
	src := `package lsm
// drop silently succeeds on a denied flow (govet:failopen).
func (k *K) drop(t *Task) error {
	if err := k.verify(t); err != nil {
		return nil
	}
	return nil
}
`
	if fs := runOne(t, FailClosed, src); len(fs) != 0 {
		t.Fatalf("doc-comment directive should suppress, got %v", fs)
	}
}

// ---------------------------------------------------------------------------
// the real tree

// repoRoot is the module root relative to this package.
const repoRoot = "../.."

func TestRepoIsClean(t *testing.T) {
	fs, err := RunDir(repoRoot, Analyzers())
	if err != nil {
		t.Fatalf("RunDir: %v", err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}
