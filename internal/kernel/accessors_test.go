package kernel

import "testing"

func TestInodeTypeStrings(t *testing.T) {
	want := map[InodeType]string{
		TypeRegular: "regular", TypeDir: "dir", TypePipe: "pipe",
		TypeDevNull: "devnull", TypeDevZero: "devzero", InodeType(99): "unknown",
	}
	for ty, name := range want {
		if got := ty.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", ty, got, name)
		}
	}
}

func TestInodeXattrs(t *testing.T) {
	ino := newInode(TypeRegular, 0o644)
	if _, ok := ino.GetXattr("a"); ok {
		t.Error("xattr on fresh inode")
	}
	ino.SetXattr("security.b", []byte{2})
	ino.SetXattr("security.a", []byte{1})
	if got := ino.ListXattrs(); len(got) != 2 || got[0] != "security.a" {
		t.Errorf("ListXattrs = %v", got)
	}
	v, ok := ino.GetXattr("security.a")
	if !ok || v[0] != 1 {
		t.Errorf("GetXattr = %v, %v", v, ok)
	}
	// Returned slices are copies.
	v[0] = 9
	v2, _ := ino.GetXattr("security.a")
	if v2[0] != 1 {
		t.Error("GetXattr exposed internal storage")
	}
}

func TestInodeCapQueue(t *testing.T) {
	pipe := newInode(TypePipe, 0o600)
	if pipe.PopCap() != nil {
		t.Error("PopCap on empty queue")
	}
	pipe.PushCap("x")
	pipe.PushCap("y")
	if pipe.PopCap() != "x" || pipe.PopCap() != "y" || pipe.PopCap() != nil {
		t.Error("cap queue order broken")
	}
	// Non-pipe inodes ignore pushes.
	file := newInode(TypeRegular, 0o644)
	file.PushCap("z")
	if file.PopCap() != nil {
		t.Error("cap queue on regular inode")
	}
}

func TestTaskAccessors(t *testing.T) {
	k, init := bare(t)
	if init.Exited() {
		t.Error("init exited")
	}
	if init.Kernel() != k {
		t.Error("Kernel() mismatch")
	}
	child, _ := k.Fork(init, nil)
	k.Exit(child)
	if !child.Exited() {
		t.Error("exited child not reported")
	}
}

func TestRootAndChild(t *testing.T) {
	k, _ := bare(t)
	root := k.Root()
	etc, ok := root.Child("etc")
	if !ok || !etc.isDir() {
		t.Fatalf("Child(etc) = %v, %v", etc, ok)
	}
	if _, ok := root.Child("nope"); ok {
		t.Error("missing child found")
	}
}

func TestStatFields(t *testing.T) {
	k, init := bare(t)
	fd, _ := k.Open(init, "/tmp/s", OCreate|OWrite)
	k.Write(init, fd, []byte("abc"))
	st, err := k.Stat(init, "/tmp/s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 3 || st.Nlink != 1 || st.Type != TypeRegular || st.Ino == 0 {
		t.Errorf("Stat = %+v", st)
	}
}
