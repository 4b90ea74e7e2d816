package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"laminar/internal/difc"
)

// Flight-recorder dumps. In-memory events carry labels as intern ids,
// which are meaningless outside the emitting process; a dump resolves
// every id to its tag set so laminar-trace can filter, pretty-print and
// replay the stream from another process entirely. The format is JSONL —
// one DumpEvent per line — because dumps happen in crash paths where an
// incremental, append-only encoding beats one big document.

// DumpVersion is the current dump record version. Version 1 records
// (PR 4) carry no V field and no node/trace headers; readers treat a
// missing V as 1 and leave the new fields zero, so old dumps stay
// readable.
const DumpVersion = 2

// DumpEvent is the wire form of an Event. Label fields distinguish
// "empty" ([]) from "unknown / never interned" (null): replay requires
// known operands and refuses events with null where a label is needed.
type DumpEvent struct {
	V     int    `json:"v,omitempty"`
	Seq   uint64 `json:"seq"`
	TID   uint64 `json:"tid"`
	Proc  uint64 `json:"proc,omitempty"`
	Ino   uint64 `json:"ino,omitempty"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Rule  string `json:"rule,omitempty"`
	Op    string `json:"op,omitempty"`
	Check string `json:"check,omitempty"`
	Site  string `json:"site,omitempty"`

	// Node identity and trace context (v2): multi-node dumps merge on
	// these instead of filename conventions.
	Node        uint64 `json:"node,omitempty"`
	NodeEpoch   uint64 `json:"node_epoch,omitempty"`
	TraceID     uint64 `json:"trace_id,omitempty"`
	TraceHop    uint8  `json:"trace_hop,omitempty"`
	TraceOrigin uint64 `json:"trace_origin,omitempty"`
	TraceEpoch  uint64 `json:"trace_epoch,omitempty"`

	SrcS []uint64 `json:"src_s"`
	SrcI []uint64 `json:"src_i"`
	DstS []uint64 `json:"dst_s"`
	DstI []uint64 `json:"dst_i"`
	CapP []uint64 `json:"cap_p"`
	CapM []uint64 `json:"cap_m"`

	Delta []uint64 `json:"delta,omitempty"`
	Tag   uint64   `json:"tag,omitempty"`
	Cap   string   `json:"cap,omitempty"`

	Detail string `json:"detail,omitempty"`
}

// resolveID renders an intern id as a tag slice: nil when the id is
// unknown, a non-nil (possibly empty) slice when it resolves.
func resolveID(id uint64) []uint64 {
	l, ok := difc.LabelByID(id)
	if !ok {
		return nil
	}
	tags := l.Tags()
	out := make([]uint64, 0, len(tags))
	for _, t := range tags {
		out = append(out, uint64(t))
	}
	return out
}

func tagsToWire(tags []difc.Tag) []uint64 {
	if len(tags) == 0 {
		return nil
	}
	out := make([]uint64, len(tags))
	for i, t := range tags {
		out[i] = uint64(t)
	}
	return out
}

func wireToLabel(ts []uint64) (difc.Label, bool) {
	if ts == nil {
		return difc.Label{}, false
	}
	tags := make([]difc.Tag, len(ts))
	for i, t := range ts {
		tags[i] = difc.Tag(t)
	}
	return difc.NewLabel(tags...), true
}

// ToDump resolves the event's intern ids into a self-contained wire
// record.
func (e Event) ToDump() DumpEvent {
	d := DumpEvent{
		V:     DumpVersion,
		Seq:   e.Seq,
		TID:   e.TID,
		Proc:  e.Proc,
		Ino:   e.Ino,
		Layer: e.Layer.String(),
		Kind:  e.Kind.String(),

		Node:        e.Node,
		NodeEpoch:   e.NodeEpoch,
		TraceID:     e.TraceID,
		TraceHop:    e.TraceHop,
		TraceOrigin: e.TraceOrigin,
		TraceEpoch:  e.TraceEpoch,

		Op:     e.Op,
		Check:  e.Check,
		Site:   e.Site,
		SrcS:   resolveID(e.SrcS),
		SrcI:   resolveID(e.SrcI),
		DstS:   resolveID(e.DstS),
		DstI:   resolveID(e.DstI),
		CapP:   resolveID(e.CapP),
		CapM:   resolveID(e.CapM),
		Delta:  tagsToWire(e.Delta),
		Tag:    uint64(e.Tag),
		Detail: e.Detail,
	}
	if e.Rule != RuleNone {
		d.Rule = e.Rule.String()
	}
	if e.Cap != 0 {
		d.Cap = e.Cap.String()
	}
	return d
}

// ToEvent rebuilds an in-memory event from its wire form, re-interning
// the label operands in the reading process so SrcLabels/DstLabels/Caps
// and Replay work on loaded dumps exactly as on live events.
func (d DumpEvent) ToEvent() Event {
	e := Event{
		Seq:   d.Seq,
		TID:   d.TID,
		Proc:  d.Proc,
		Ino:   d.Ino,
		Layer: layerFromString(d.Layer),
		Kind:  kindFromString(d.Kind),

		Node:        d.Node,
		NodeEpoch:   d.NodeEpoch,
		TraceID:     d.TraceID,
		TraceHop:    d.TraceHop,
		TraceOrigin: d.TraceOrigin,
		TraceEpoch:  d.TraceEpoch,

		Rule:   ruleFromString(d.Rule),
		Op:     d.Op,
		Check:  d.Check,
		Site:   d.Site,
		Tag:    difc.Tag(d.Tag),
		Detail: d.Detail,
	}
	intern := func(ts []uint64) uint64 {
		l, ok := wireToLabel(ts)
		if !ok {
			return 0
		}
		return difc.Intern(l)
	}
	e.SrcS, e.SrcI = intern(d.SrcS), intern(d.SrcI)
	e.DstS, e.DstI = intern(d.DstS), intern(d.DstI)
	e.CapP, e.CapM = intern(d.CapP), intern(d.CapM)
	if len(d.Delta) > 0 {
		e.Delta = make([]difc.Tag, len(d.Delta))
		for i, t := range d.Delta {
			e.Delta[i] = difc.Tag(t)
		}
	}
	switch d.Cap {
	case "+":
		e.Cap = difc.CapPlus
	case "-":
		e.Cap = difc.CapMinus
	case "+-":
		e.Cap = difc.CapBoth
	}
	return e
}

// DumpMeta is the optional first line of a v2 dump: the emitting node's
// identity plus a metrics snapshot taken at dump time, so laminar-trace
// stats can render per-layer latency without the live process. It is
// wrapped in a {"dump_meta": ...} envelope on the wire, which no event
// line carries, so v1 readers that iterate DumpEvent lines and v2
// readers of v1 dumps both keep working.
type DumpMeta struct {
	V         int              `json:"v"`
	Node      uint64           `json:"node,omitempty"`
	NodeEpoch uint64           `json:"node_epoch,omitempty"`
	Snapshot  *MetricsSnapshot `json:"snapshot,omitempty"`
}

type metaEnvelope struct {
	DumpMeta *DumpMeta `json:"dump_meta"`
}

// WriteDump writes events as JSONL.
func WriteDump(w io.Writer, events []Event) error {
	return WriteDumpMeta(w, nil, events)
}

// WriteDumpMeta writes an optional meta header line followed by the
// events as JSONL.
func WriteDumpMeta(w io.Writer, meta *DumpMeta, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if meta != nil {
		m := *meta
		if m.V == 0 {
			m.V = DumpVersion
		}
		if err := enc.Encode(metaEnvelope{DumpMeta: &m}); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := enc.Encode(e.ToDump()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump writes the recorder's current flight-recorder contents as JSONL.
func (r *Recorder) Dump(w io.Writer) error {
	return WriteDump(w, r.Snapshot())
}

// DumpWithMeta writes the flight-recorder contents preceded by a meta
// line carrying the node identity and a point-in-time metrics snapshot.
func (r *Recorder) DumpWithMeta(w io.Writer) error {
	node, epoch := r.NodeIdentity()
	snap := r.MetricsSnapshot()
	meta := &DumpMeta{V: DumpVersion, Node: node, NodeEpoch: epoch, Snapshot: &snap}
	return WriteDumpMeta(w, meta, r.Snapshot())
}

// ReadDump parses a JSONL dump back into events. Blank lines and the
// meta header are skipped; a malformed line fails with its line number.
func ReadDump(rd io.Reader) ([]Event, error) {
	_, events, err := ReadDumpFull(rd)
	return events, err
}

// ReadDumpFull parses a JSONL dump into its meta header (nil for v1
// dumps or dumps written without one) and its events.
func ReadDumpFull(rd io.Reader) (*DumpMeta, []Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var meta *DumpMeta
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if line == 1 {
			var env metaEnvelope
			if err := json.Unmarshal(raw, &env); err == nil && env.DumpMeta != nil {
				meta = env.DumpMeta
				continue
			}
		}
		var d DumpEvent
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, nil, fmt.Errorf("telemetry: dump line %d: %w", line, err)
		}
		out = append(out, d.ToEvent())
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return meta, out, nil
}
