package durable_test

import (
	"encoding/hex"
	"testing"

	"laminar/internal/budget"
	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// TestRecordBytesGolden pins the exact bytes each caller of the record
// store writes for fixed inputs: a label pair with one secrecy and one
// integrity tag, one budget fact and one incarnation epoch. The formats
// are on-disk formats: a record written by one build must open in the
// next, so any change here is a format change, not a refactor.
func TestRecordBytesGolden(t *testing.T) {
	mod := lsm.New()
	k := kernel.New(kernel.WithSecurityModule(mod))
	mod.InstallSystemIntegrity(k)
	user, err := k.Spawn(k.InitTask(), []kernel.Capability{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Chdir(user, "/tmp"); err != nil {
		t.Fatal(err)
	}
	s, _ := k.AllocTag(user)
	i, _ := k.AllocTag(user)
	labels := difc.Labels{S: difc.NewLabel(s), I: difc.NewLabel(i)}
	fd, err := k.CreateFileLabeled(user, "golden", 0o600, labels)
	if err != nil {
		t.Fatal(err)
	}
	k.Close(user, fd)
	var label []byte
	var names []string
	k.WalkInodes(func(ino *kernel.Inode) {
		if ino.Type == kernel.TypeRegular {
			label, _ = ino.GetXattr(lsm.XattrLabel)
			names = ino.ListXattrs()
		}
	})
	if len(names) != 1 || names[0] != lsm.XattrLabel {
		t.Errorf("labeled file xattrs = %v, want only %s", names, lsm.XattrLabel)
	}

	facts := durable.NewMemStore()
	l := budget.New(budget.WithStore(facts))
	l.SetLimit(difc.Tag(2), 1, 10)
	if err := l.Charge("send", difc.Tag(2), 1, 4); err != nil {
		t.Fatal(err)
	}
	fact, _ := facts.Get("budget/2/1")

	nodes := durable.NewMemStore()
	c := cluster.New(cluster.Config{ID: 1, Kernel: k, Module: mod, Store: nodes})
	c.Close()
	epoch, _ := nodes.Get("node/epoch")

	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"label", label, "4c4d4c310c0000000100000000000000040c0000000100000000000000055bb0aeb1"},
		{"budget fact", fact, "4c4d42310000000000000004000000000000000a000000000000000184986999"},
		{"epoch", epoch, "4c4d4331000000000000000168a03052"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s record = %s, want %s", g.name, got, g.want)
		}
	}
	for _, st := range []*durable.MemStore{facts, nodes} {
		for _, key := range st.Keys() {
			if key != "budget/2/1" && key != "node/epoch" {
				t.Errorf("unexpected record %q left behind", key)
			}
		}
	}
}
