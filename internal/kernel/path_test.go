package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// walkModule is tagModule plus a log of every InodePermission check, so a
// walk's lookups and their order are visible to the test.
type walkModule struct {
	tagModule
	log *[]string
}

func (m walkModule) InodePermission(_ *Task, ino *Inode, mask AccessMask) error {
	*m.log = append(*m.log, fmt.Sprintf("%d:%s", ino.Ino, maskOp(mask)))
	return nil
}

// TestResolveParentTable pins resolveParent: the parent directory and
// final name it returns, its error, and the directory-read checks it
// runs, in order. Every lookup is one InodePermission hook, so a walk
// that checked a different directory, or the same ones in another
// order, would move hook counts and fault-injection consults.
func TestResolveParentTable(t *testing.T) {
	var log []string
	k := New(WithSecurityModule(walkModule{log: &log}), WithoutTelemetry())
	init := k.InitTask()
	for _, dir := range []string{"/tmp/a", "/tmp/a/b", "/tmp/a/b/c"} {
		if err := k.Mkdir(init, dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fd, err := k.Open(init, "/tmp/f", OCreate|OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(init, fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(init, "/tmp"); err != nil {
		t.Fatal(err)
	}
	ino := func(path string) *Inode {
		t.Helper()
		cur := k.root
		for _, p := range strings.Split(strings.Trim(path, "/"), "/") {
			if p != "" {
				cur = cur.children[p]
			}
		}
		return cur
	}
	root, tmp, a, b := ino("/"), ino("/tmp"), ino("/tmp/a"), ino("/tmp/a/b")
	read := func(dirs ...*Inode) []string {
		var out []string
		for _, d := range dirs {
			out = append(out, fmt.Sprintf("%d:read", d.Ino))
		}
		return out
	}

	for _, c := range []struct {
		name   string
		path   string
		dir    *Inode
		last   string
		err    error
		checks []string
	}{
		{name: "empty", path: "", err: ErrNoEnt},
		{name: "root", path: "/", dir: root},
		{name: "only slashes", path: "///", dir: root},
		{name: "dot", path: ".", dir: tmp},
		{name: "relative with empty and dot parts", path: "a//b/./c/", dir: b, last: "c",
			checks: read(tmp, a)},
		{name: "absolute with empty and dot parts", path: "//tmp/./a//b", dir: a, last: "b",
			checks: read(root, tmp)},
		{name: "trailing slash", path: "/tmp/", dir: root, last: "tmp"},
		{name: "dotdot at the root is the last name", path: "/..", dir: root, last: ".."},
		{name: "dotdot at the root stays there", path: "/../tmp/x", dir: tmp, last: "x",
			checks: read(root, root)},
		{name: "dotdot mid-path", path: "a/../a/b", dir: a, last: "b",
			checks: read(tmp, a, tmp)},
		{name: "non-directory mid-path", path: "/tmp/f/x", err: ErrNotDir,
			checks: read(root, tmp)},
		{name: "missing mid-path", path: "/nope/x", err: ErrNoEnt, checks: read(root)},
		{name: "4096 bytes", path: "/tmp/a" + strings.Repeat("/.", 2044) + "/b", dir: a, last: "b",
			checks: read(root, tmp)},
		{name: "4097 bytes", path: strings.Repeat("/", 4097), err: ErrNameLong},
	} {
		t.Run(c.name, func(t *testing.T) {
			log = log[:0]
			dir, last, err := k.resolveParent(init, c.path)
			if !errors.Is(err, c.err) || (err == nil) != (c.err == nil) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if dir != c.dir || last != c.last {
				t.Errorf("got (ino %v, %q), want (ino %v, %q)", inoOf(dir), last, inoOf(c.dir), c.last)
			}
			if strings.Join(log, " ") != strings.Join(c.checks, " ") {
				t.Errorf("checks = %v, want %v", log, c.checks)
			}
		})
	}
}

// inoOf names an inode for a failure message; nil reads as 0.
func inoOf(i *Inode) Ino {
	if i == nil {
		return 0
	}
	return i.Ino
}
