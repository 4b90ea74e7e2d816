// Package telemetry is the unified observability subsystem for the
// Laminar reproduction: one low-overhead event stream threaded through
// every enforcement point — kernel syscalls and LSM hooks, the VM
// runtime's read/write barriers and security regions, the MiniJVM's
// compiled barriers, the canonical label table, and the fault-injection
// layer.
//
// It has three parts (DESIGN.md §11):
//
//   - Decision provenance: every denial (and, at LevelAll, every allow)
//     records which rule fired — Bell–LaPadula secrecy, Biba integrity,
//     the label-change capability rule — together with the offending tag
//     delta, the subject/object labels as label words (never copies),
//     and the syscall/hook/barrier site. Denials are queryable after the
//     fact and replayable: Explain re-runs the exact check from the
//     recorded operands.
//   - Metrics: sharded atomic counters and log-scale latency histograms
//     for hook rates, denials by rule, barrier hits, label-table
//     inserts, lock contention and fault-injection trips,
//     exported via expvar and a Prometheus-style text dump.
//   - Flight recorder: a fixed-size lock-free per-shard ring of recent
//     events that a crash, chaos failure or oracle mismatch dumps for
//     postmortem replay (ring.go, dump.go).
//
// Cost model: with the level at LevelOff (the default), every
// instrumentation site is a single atomic load and a predictable branch;
// laminar-bench -storm gates the disabled path at 2% over an
// uninstrumented kernel on the io-storm workload. Event construction,
// label interning and ring writes happen only past that gate.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"laminar/internal/difc"
)

// Level selects how much the recorder observes.
type Level int32

// Recording levels.
const (
	// LevelOff records nothing; instrumentation sites reduce to one
	// atomic load. The production default.
	LevelOff Level = iota
	// LevelDeny records denials, faults and security-region lifecycle
	// events, and keeps metrics.
	LevelDeny
	// LevelAll additionally records every allow decision. Expensive;
	// meant for tracing sessions and tests.
	LevelAll
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelDeny:
		return "deny"
	case LevelAll:
		return "all"
	default:
		return "unknown"
	}
}

// Layer identifies which enforcement layer emitted an event.
type Layer uint8

// Enforcement layers.
const (
	LayerKernel  Layer = iota // syscall layer (hook call sites)
	LayerLSM                  // the Laminar security module itself
	LayerRT                   // the trusted VM runtime (regions, barriers)
	LayerJVM                  // the MiniJVM substrate
	LayerNet                  // the cross-kernel labeled transport (netlabel)
	LayerCluster              // the cluster label plane (membership, epochs, changes)
	LayerBudget               // the quantitative flow-budget ledger (internal/budget)
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerKernel:
		return "kernel"
	case LayerLSM:
		return "lsm"
	case LayerRT:
		return "rt"
	case LayerJVM:
		return "jvm"
	case LayerNet:
		return "net"
	case LayerCluster:
		return "cluster"
	case LayerBudget:
		return "budget"
	default:
		return "unknown"
	}
}

// layerFromString parses a dumped layer name.
func layerFromString(s string) Layer {
	switch s {
	case "lsm":
		return LayerLSM
	case "rt":
		return LayerRT
	case "jvm":
		return LayerJVM
	case "net":
		return LayerNet
	case "cluster":
		return LayerCluster
	case "budget":
		return LayerBudget
	default:
		return LayerKernel
	}
}

// Kind classifies events.
type Kind uint8

// Event kinds.
const (
	KindDeny         Kind = iota // a DIFC check rejected an operation
	KindAllow                    // a DIFC check passed (LevelAll only)
	KindRegionEnter              // a security region was entered
	KindRegionExit               // a security region was exited
	KindCopyAndLabel             // an explicit declassification/relabel
	KindCapGained                // a capability was acquired
	KindCapDropped               // a capability was dropped
	KindFaultTrip                // the fault injector fired at a site
	KindLifecycle                // a cluster membership/change transition
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDeny:
		return "deny"
	case KindAllow:
		return "allow"
	case KindRegionEnter:
		return "region-enter"
	case KindRegionExit:
		return "region-exit"
	case KindCopyAndLabel:
		return "copy-and-label"
	case KindCapGained:
		return "cap-gained"
	case KindCapDropped:
		return "cap-dropped"
	case KindFaultTrip:
		return "fault-trip"
	case KindLifecycle:
		return "lifecycle"
	default:
		return "unknown"
	}
}

// kindFromString parses a dumped kind name.
func kindFromString(s string) Kind {
	for k := KindDeny; k <= KindLifecycle; k++ {
		if k.String() == s {
			return k
		}
	}
	return KindDeny
}

// Rule names which DIFC rule a decision exercised.
type Rule uint8

// Decision rules.
const (
	RuleNone        Rule = iota // lifecycle events, fault trips
	RuleSecrecy                 // Bell–LaPadula: Ssrc ⊆ Sdst
	RuleIntegrity               // Biba: Idst ⊆ Isrc
	RuleLabelChange             // label-change capability rule
	RuleCapability              // capability possession / subset checks
	RuleFault                   // fail-closed denial from an injected fault
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleNone:
		return "none"
	case RuleSecrecy:
		return "secrecy"
	case RuleIntegrity:
		return "integrity"
	case RuleLabelChange:
		return "label-change"
	case RuleCapability:
		return "capability"
	case RuleFault:
		return "fault"
	default:
		return "unknown"
	}
}

// ruleFromString parses a dumped rule name.
func ruleFromString(s string) Rule {
	for r := RuleNone; r <= RuleFault; r++ {
		if r.String() == s {
			return r
		}
	}
	return RuleNone
}

// Event is one provenance record. Labels are carried as difc.Label
// words, so recording never copies tag slices and the event keeps its
// operands alive for as long as a ring holds it; the Delta — the exact
// tags that fired a denial — is the only per-event allocation beyond the
// record itself. Has records which label fields the emitter filled in,
// because an empty label and one never recorded are both the zero word.
//
// For flow-rule events Src/Dst are the operands exactly as the check saw
// them (CheckFlow(Op, Src, Dst)); for label-change events Src is the
// current ("from") label pair and Dst the requested ("to") pair, with
// CapP/CapM the acting capability set. Replay re-runs the identical
// check from these operands (explain.go).
type Event struct {
	Seq  uint64 // recorder-global sequence number (total order)
	TID  uint64 // acting kernel task, 0 when no task is involved
	Proc uint64 // acting task's process id (VM audit adapters filter on it)
	Ino  uint64 // inode the check concerned (trace binding key), 0 when none

	Node      uint64 // emitting node id (stamped by Emit), 0 standalone
	NodeEpoch uint64 // emitting node's incarnation epoch

	TraceID     uint64 // cross-hop trace id (stamped by Emit), 0 untraced
	TraceHop    uint8  // hops from the trace origin to this node
	TraceOrigin uint64 // trace-minting node id
	TraceEpoch  uint64 // trace-minting node's incarnation epoch

	Layer Layer
	Kind  Kind
	Rule  Rule
	Op    string // operation checked: "read", "write", "signal", ...
	Check string // check shape for label-change denials: "change", "acquire", "drop", "subset"
	Site  string // emission site: "hook.FilePermission", "rt.barrier.read", ...

	SrcS, SrcI difc.Label // source/from label pair
	DstS, DstI difc.Label // destination/to label pair
	CapP, CapM difc.Label // acting capability set (label-change)
	Has        Operands   // which of the six label fields are recorded

	Delta []difc.Tag   // offending tag delta (denials)
	Tag   difc.Tag     // capability-movement events
	Cap   difc.CapKind // capability-movement events

	Detail string // human-oriented denial detail (cold path only)
}

// String renders the event for logs and the live tail.
func (e Event) String() string {
	switch e.Kind {
	case KindDeny:
		return fmt.Sprintf("#%d [tid %d] %s %s deny op=%s rule=%s delta=%v %s",
			e.Seq, e.TID, e.Layer, e.Site, e.Op, e.Rule, e.Delta, e.Detail)
	case KindAllow:
		return fmt.Sprintf("#%d [tid %d] %s %s allow op=%s", e.Seq, e.TID, e.Layer, e.Site, e.Op)
	case KindCapGained, KindCapDropped:
		return fmt.Sprintf("#%d [tid %d] %s %s %s %v%v", e.Seq, e.TID, e.Layer, e.Site, e.Kind, e.Tag, e.Cap)
	case KindFaultTrip:
		return fmt.Sprintf("#%d [tid %d] %s %s fault-trip %s", e.Seq, e.TID, e.Layer, e.Site, e.Detail)
	default:
		return fmt.Sprintf("#%d [tid %d] %s %s %s", e.Seq, e.TID, e.Layer, e.Site, e.Kind)
	}
}

// Operands is a set of an Event's label fields, one bit per field.
type Operands uint8

// The label fields of an Event.
const (
	HasSrcS Operands = 1 << iota
	HasSrcI
	HasDstS
	HasDstI
	HasCapP
	HasCapM
)

// SetSrc records the source/from label pair.
func (e *Event) SetSrc(l difc.Labels) {
	e.SrcS, e.SrcI = l.S, l.I
	e.Has |= HasSrcS | HasSrcI
}

// SetDst records the destination/to label pair.
func (e *Event) SetDst(l difc.Labels) {
	e.DstS, e.DstI = l.S, l.I
	e.Has |= HasDstS | HasDstI
}

// hasFlowOperands reports whether the event records both secrecy labels
// of a flow, so a flow check can be replayed from it.
func (e Event) hasFlowOperands() bool { return e.Has&(HasSrcS|HasDstS) == HasSrcS|HasDstS }

// srcLabels returns the event's source label pair. ok is false when
// either component was not recorded.
func (e Event) srcLabels() (difc.Labels, bool) {
	return difc.Labels{S: e.SrcS, I: e.SrcI}, e.Has&(HasSrcS|HasSrcI) == HasSrcS|HasSrcI
}

// dstLabels returns the event's destination label pair.
func (e Event) dstLabels() (difc.Labels, bool) {
	return difc.Labels{S: e.DstS, I: e.DstI}, e.Has&(HasDstS|HasDstI) == HasDstS|HasDstI
}

// Recorder is one telemetry domain: a level gate, a flight-recorder ring,
// a metrics block and a subscriber list. The package-level Default
// recorder serves normal processes; tests and the chaos harness create
// private recorders so parallel runs do not share rings.
type Recorder struct {
	level  atomic.Int32
	seq    atomic.Uint64
	rings  atomic.Pointer[ringSet] // nil until the first record (ring.go)
	ringMu sync.Mutex

	// Node identity and the trace registry (trace.go). Telemetry-only
	// state: enforcement never reads these, so binding a trace cannot
	// perturb a verdict.
	nodeID     atomic.Uint64
	nodeEpoch  atomic.Uint64
	traceBound atomic.Int64
	traces     traceReg

	M Metrics

	subMu sync.Mutex
	subs  atomic.Pointer[[]func(Event)]
}

// Default is the process-wide recorder: the kernel uses it unless a
// private one is installed, and expvar/Prometheus export reads it.
var Default = NewRecorder()

// NewRecorder builds a recorder at LevelOff.
func NewRecorder() *Recorder { return &Recorder{} }

// SetLevel switches the recorder's level at runtime.
func (r *Recorder) SetLevel(l Level) { r.level.Store(int32(l)) }

// Active reports whether the recorder observes anything at all. This is
// THE disabled-path gate: one atomic load, done before any event
// construction, interning or timing at every instrumentation site.
func (r *Recorder) Active() bool { return r.level.Load() != int32(LevelOff) }

// Verbose reports whether allow decisions are recorded too.
func (r *Recorder) Verbose() bool { return r.level.Load() >= int32(LevelAll) }

// Subscribe registers a live sink called synchronously for every
// recorded event (the VM audit adapter and laminar-trace's live tail use
// it). The returned function unsubscribes. Sinks must be fast and must
// not re-enter the recorder.
func (r *Recorder) Subscribe(fn func(Event)) func() {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	old := r.subs.Load()
	var next []func(Event)
	if old != nil {
		next = append(next, *old...)
	}
	idx := len(next)
	next = append(next, fn)
	r.subs.Store(&next)
	return func() {
		r.subMu.Lock()
		defer r.subMu.Unlock()
		cur := r.subs.Load()
		if cur == nil || idx >= len(*cur) {
			return
		}
		repl := make([]func(Event), 0, len(*cur)-1)
		repl = append(repl, (*cur)[:idx]...)
		repl = append(repl, (*cur)[idx+1:]...)
		r.subs.Store(&repl)
	}
}

// Emit records one event: sequence assignment, ring write, counters,
// subscribers. Callers must already have checked Active (or Verbose for
// allow events); Emit itself re-checks nothing so the cold path stays a
// single code path.
func (r *Recorder) Emit(e Event) {
	e.Seq = r.seq.Add(1)
	r.stampTrace(&e)
	r.record(&e)
	r.M.events.Inc(e.TID)
	if e.Kind == KindDeny {
		r.M.Denials.Inc(e.TID)
		r.M.denialsByRule[e.Rule].Inc(e.TID)
	} else if e.Kind == KindAllow {
		r.M.Allows.Inc(e.TID)
	}
	if subs := r.subs.Load(); subs != nil {
		for _, fn := range *subs {
			fn(e)
		}
	}
}

// EmitDeny classifies a denial error into a provenance event and records
// it: *difc.FlowError becomes a secrecy/integrity denial with the exact
// operands and delta, *difc.ChangeError a label-change/capability denial,
// and anything else (policy refusals, injected faults) a denial with
// detail text only. Callers gate on Active.
func (r *Recorder) EmitDeny(layer Layer, site, op string, tid, proc uint64, err error) {
	r.Emit(DenyEvent(layer, site, op, tid, proc, err))
}

// EmitFaultTrip records a fault-injection firing and bumps the trip
// counter. Callers gate on Active; the counter also fires at LevelDeny.
func (r *Recorder) EmitFaultTrip(layer Layer, site string, tid uint64, kind string) {
	r.M.FaultTrips.Inc(tid)
	r.Emit(Event{Layer: layer, Kind: KindFaultTrip, Site: site, TID: tid, Detail: kind})
}
