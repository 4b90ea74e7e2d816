package flume

import (
	"errors"
	"testing"

	"laminar/internal/difc"
)

func TestSpawnAndTag(t *testing.T) {
	m := NewMonitor()
	p := m.Spawn()
	tag := m.CreateTag(p)
	if tag == difc.InvalidTag {
		t.Fatal("invalid tag")
	}
	if !p.caps.Has(tag, difc.CapPlus) || !p.caps.Has(tag, difc.CapMinus) {
		t.Error("tag creator missing privileges")
	}
}

func TestSetLabelWholeProcess(t *testing.T) {
	m := NewMonitor()
	p := m.Spawn()
	tag := m.CreateTag(p)
	if err := m.SetLabel(p, 0, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	if !p.labels.S.Equal(difc.NewLabel(tag)) {
		t.Errorf("labels = %v", p.labels)
	}
	// Without the minus privilege, the label cannot drop.
	q := m.Spawn()
	tagQ := m.CreateTag(q)
	if err := m.SetLabel(q, 0, difc.NewLabel(tagQ)); err != nil {
		t.Fatal(err)
	}
	q.caps = q.caps.Drop(tagQ, difc.CapMinus)
	if err := m.SetLabel(q, 0, difc.EmptyLabel); !errors.Is(err, ErrFlow) {
		t.Errorf("drop without privilege = %v", err)
	}
}

func TestEndpointFlow(t *testing.T) {
	m := NewMonitor()
	a, b := m.Spawn(), m.Spawn()
	ea, eb, err := m.CreateEndpointPair(a, b, difc.Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Send(a, ea, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv(b, eb)
	if err != nil || string(msg) != "hi" {
		t.Fatalf("recv = %q, %v", msg, err)
	}
	// Empty queue.
	if _, err := m.Recv(b, eb); !errors.Is(err, ErrCapacity) {
		t.Errorf("empty recv = %v", err)
	}
	// Tainted sender to unlabeled endpoint is refused.
	tag := m.CreateTag(a)
	if err := m.SetLabel(a, 0, difc.NewLabel(tag)); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(a, ea, []byte("secret")); !errors.Is(err, ErrFlow) {
		t.Errorf("tainted send = %v", err)
	}
	// Wrong owner.
	if err := m.Send(b, ea, nil); !errors.Is(err, ErrNoSuch) {
		t.Errorf("wrong owner send = %v", err)
	}
}

func TestReadWriteData(t *testing.T) {
	m := NewMonitor()
	p := m.Spawn()
	tag := m.CreateTag(p)
	secret := difc.Labels{S: difc.NewLabel(tag)}
	// Unlabeled process cannot read secret data.
	if err := m.ReadData(p, secret); !errors.Is(err, ErrFlow) {
		t.Errorf("unlabeled read of secret = %v", err)
	}
	if err := m.SetLabel(p, 0, secret.S); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadData(p, secret); err != nil {
		t.Errorf("labeled read = %v", err)
	}
	// Tainted process cannot write unlabeled data.
	if err := m.WriteData(p, difc.Labels{}); !errors.Is(err, ErrFlow) {
		t.Errorf("tainted write down = %v", err)
	}
}

func TestHeterogeneousLabelsImpossible(t *testing.T) {
	// The Table 1 probe: two objects with different secrecy tags cannot
	// both be read AND written by one Flume process, because the process
	// has a single label. (In Laminar, two security regions in one
	// address space handle this directly.)
	m := NewMonitor()
	p := m.Spawn()
	t1, t2 := m.CreateTag(p), m.CreateTag(p)
	a := difc.Labels{S: difc.NewLabel(t1)}
	b := difc.Labels{S: difc.NewLabel(t2)}
	if m.CanHoldBoth(a, b) {
		t.Error("process-granularity monitor claims heterogeneous labels work")
	}
	// Same labels are of course fine.
	if !m.CanHoldBoth(a, a) {
		t.Error("homogeneous labels rejected")
	}
}

func TestSyscallCounting(t *testing.T) {
	m := NewMonitor()
	p := m.Spawn()
	before := m.Syscalls
	m.CreateTag(p)
	m.ReadData(p, difc.Labels{})
	if m.Syscalls != before+2 {
		t.Errorf("syscalls = %d, want %d", m.Syscalls, before+2)
	}
}
