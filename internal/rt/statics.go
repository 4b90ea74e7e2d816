package rt

import (
	"fmt"
	"sync"

	"laminar/internal/difc"
)

// staticsTable is the VM's global (static variable) table. The prototype
// restrictions of §5.1 apply: a security region with secrecy labels may
// not write statics (the write would leak on region exit), and a region
// with integrity labels may not read them (statics carry no endorsement).
// Outside regions, statics behave normally.
type staticsTable struct {
	mu sync.RWMutex
	m  map[string]any
}

func newStaticsTable() *staticsTable {
	return &staticsTable{m: make(map[string]any)}
}

// GetStatic reads a static variable from outside any security region.
func (t *Thread) GetStatic(name string) any {
	if t.inRegion() {
		return t.region.GetStatic(name)
	}
	return t.vm.statics.get(name)
}

// SetStatic writes a static variable from outside any security region.
func (t *Thread) SetStatic(name string, v any) {
	if t.inRegion() {
		t.region.SetStatic(name, v)
		return
	}
	t.vm.statics.set(name, v)
}

// GetStatic reads a static inside a region. The read is rejected when the
// region has integrity labels (§5.1).
func (r *Region) GetStatic(name string) any {
	r.act("static-read")
	r.thread.vm.stats.ReadBarriers.Add(1)
	r.check("static-read", checkStaticRead(&r.labels))
	return r.thread.vm.statics.get(name)
}

// SetStatic writes a static inside a region. The write is rejected when
// the region has secrecy labels (§5.1).
func (r *Region) SetStatic(name string, v any) {
	r.act("static-write")
	r.thread.vm.stats.WriteBarriers.Add(1)
	r.check("static-write", checkStaticWrite(&r.labels))
	r.thread.vm.statics.set(name, v)
}

// checkStaticRead is the §5.1 statics read rule for a context labeled cur.
func checkStaticRead(cur *difc.Labels) error {
	if !cur.I.IsEmpty() {
		return fmt.Errorf("region with integrity label %v may not read statics", cur.I)
	}
	return nil
}

// checkStaticWrite is the §5.1 statics write rule for a context labeled
// cur.
func checkStaticWrite(cur *difc.Labels) error {
	if !cur.S.IsEmpty() {
		return fmt.Errorf("region with secrecy label %v may not write statics", cur.S)
	}
	return nil
}

// CheckStaticRead applies the statics read rule to the thread's current
// labels. The MiniJVM interpreter keeps its own slot-indexed statics
// table and calls this from its static-read barrier.
func (t *Thread) CheckStaticRead() error { return checkStaticRead(t.labels()) }

// CheckStaticWrite applies the statics write rule to the thread's current
// labels.
func (t *Thread) CheckStaticWrite() error { return checkStaticWrite(t.labels()) }

func (s *staticsTable) get(name string) any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

func (s *staticsTable) set(name string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = v
}
