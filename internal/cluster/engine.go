package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"laminar/internal/durable"
	"laminar/internal/telemetry"
)

// The change engine: long-running cluster operations (join, drain)
// modeled as persistent multi-step changes, in the style of snapd's
// overlord. A change is a named sequence of steps; the engine advances
// at most one step transition per settle, and every transition is
// checkpointed through the crash-consistent store BEFORE the next step
// may run. A node killed mid-change therefore restarts knowing exactly
// which step was in flight: Doing steps re-run (steps are idempotent by
// contract), Undoing changes continue rolling back, and a change whose
// record is torn beyond recovery is abandoned fail-closed — the node
// stays out of the cluster rather than rejoin half-configured.

// ChangeStatus is a change's (or step's) lifecycle state.
type ChangeStatus uint8

// Change lifecycle states.
const (
	StatusDo      ChangeStatus = iota // queued, nothing ran yet
	StatusDoing                       // a step is in flight
	StatusDone                        // every step completed
	StatusUndoing                     // rolling back after a permanent error
	StatusUndone                      // rollback completed
	StatusError                       // rollback itself failed; terminal
)

// String names the status.
func (s ChangeStatus) String() string {
	switch s {
	case StatusDo:
		return "do"
	case StatusDoing:
		return "doing"
	case StatusDone:
		return "done"
	case StatusUndoing:
		return "undoing"
	case StatusUndone:
		return "undone"
	case StatusError:
		return "error"
	default:
		return "unknown"
	}
}

// ErrRetry is returned by a step handler that made no progress this
// settle but should be re-run (a control round-trip still in flight, a
// transient checkpoint EIO). The engine leaves the step Doing.
var ErrRetry = errors.New("cluster: step not ready, retry")

// Step is one checkpointed unit of a change.
type Step struct {
	Name   string
	Status ChangeStatus
}

// Change is one persistent cluster operation.
type Change struct {
	ID      uint64
	Kind    string // "join", "drain"
	Status  ChangeStatus
	StepIdx int
	Steps   []Step

	dirty bool // checkpoint pending after a torn write
}

// stepDef is a registered step implementation. Do reports done=false to
// keep polling (the engine settles it again next tick); Undo must be
// idempotent and tolerate the step never having started.
type stepDef struct {
	name string
	do   func(c *Cluster, ch *Change) (done bool, err error)
	undo func(c *Cluster, ch *Change)
}

// changeKey is the store key for a change record.
func changeKey(id uint64) string { return "chg/" + strconv.FormatUint(id, 10) }

// encodeChange serializes a change record payload (sealed by checkpoint).
func encodeChange(ch *Change) []byte {
	buf := binary.BigEndian.AppendUint64(nil, ch.ID)
	buf = appendString(buf, ch.Kind)
	buf = append(buf, byte(ch.Status))
	buf = binary.BigEndian.AppendUint16(buf, uint16(ch.StepIdx))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ch.Steps)))
	for _, s := range ch.Steps {
		buf = appendString(buf, s.Name)
		buf = append(buf, byte(s.Status))
	}
	return buf
}

// decodeChange parses a change record payload.
func decodeChange(b []byte) (*Change, error) {
	ch := &Change{}
	var err error
	if ch.ID, b, err = parseU64(b); err != nil {
		return nil, err
	}
	if ch.Kind, b, err = parseString(b); err != nil {
		return nil, err
	}
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: truncated change header", ErrCtrlMalformed)
	}
	ch.Status = ChangeStatus(b[0])
	ch.StepIdx = int(binary.BigEndian.Uint16(b[1:]))
	n := int(binary.BigEndian.Uint16(b[3:]))
	b = b[5:]
	if n > 64 {
		return nil, fmt.Errorf("%w: step count %d", ErrCtrlMalformed, n)
	}
	for i := 0; i < n; i++ {
		var s Step
		if s.Name, b, err = parseString(b); err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: truncated step status", ErrCtrlMalformed)
		}
		s.Status = ChangeStatus(b[0])
		b = b[1:]
		ch.Steps = append(ch.Steps, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in change record", ErrCtrlMalformed, len(b))
	}
	return ch, nil
}

// submit creates a change of the registered kind, checkpoints it, and
// queues it for settling. locked.
func (c *Cluster) submit(kind string) (*Change, error) {
	defs, ok := c.stepDefs[kind]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown change kind %q", kind)
	}
	c.nextChange++
	ch := &Change{ID: c.nextChange, Kind: kind, Status: StatusDo}
	for _, d := range defs {
		ch.Steps = append(ch.Steps, Step{Name: d.name, Status: StatusDo})
	}
	c.changes[ch.ID] = ch
	c.saveChange(ch)
	c.changeEvent(ch, "submitted")
	return ch, nil
}

// saveChange checkpoints ch; on a torn write the change is marked dirty
// and the checkpoint retries next settle. locked.
func (c *Cluster) saveChange(ch *Change) {
	if err := c.checkpoint(changeKey(ch.ID), encodeChange(ch)); err != nil {
		ch.dirty = true
		c.count("cluster.ckpt.torn", 1)
		return
	}
	ch.dirty = false
}

// settle advances every live change by at most one step transition.
// locked (step handlers may unlock around network sends).
func (c *Cluster) settle() int {
	ids := make([]uint64, 0, len(c.changes))
	for id := range c.changes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	work := 0
	for _, id := range ids {
		ch := c.changes[id]
		if ch.dirty {
			// A torn checkpoint blocks further transitions: durable state
			// must never lag the running state by more than one step.
			c.saveChange(ch)
			work++
			if ch.dirty {
				continue
			}
		}
		switch ch.Status {
		case StatusDo:
			ch.Status = StatusDoing
			if len(ch.Steps) > 0 {
				ch.Steps[0].Status = StatusDoing
			}
			c.saveChange(ch)
			work++
		case StatusDoing:
			work += c.settleDoing(ch)
		case StatusUndoing:
			work += c.settleUndoing(ch)
		}
	}
	return work
}

// settleDoing runs the change's current step. locked.
func (c *Cluster) settleDoing(ch *Change) int {
	if ch.StepIdx >= len(ch.Steps) {
		ch.Status = StatusDone
		c.saveChange(ch)
		c.changeEvent(ch, "completed")
		return 1
	}
	step := &ch.Steps[ch.StepIdx]
	step.Status = StatusDoing
	def := c.stepDefs[ch.Kind][ch.StepIdx]
	done, err := def.do(c, ch)
	switch {
	case errors.Is(err, ErrRetry) || (err == nil && !done):
		return 0
	case err != nil:
		// Permanent failure: roll back everything that ran, newest first.
		ch.Status = StatusUndoing
		step.Status = StatusUndoing
		c.saveChange(ch)
		c.changeEvent(ch, "failed at "+step.Name+": "+err.Error())
		return 1
	default:
		step.Status = StatusDone
		ch.StepIdx++
		if ch.StepIdx == len(ch.Steps) {
			ch.Status = StatusDone
			c.changeEvent(ch, "completed")
		}
		c.saveChange(ch)
		return 1
	}
}

// settleUndoing rolls the change back one step per settle. locked.
func (c *Cluster) settleUndoing(ch *Change) int {
	if ch.StepIdx < 0 {
		ch.Status = StatusUndone
		c.saveChange(ch)
		c.changeEvent(ch, "rolled back")
		return 1
	}
	step := &ch.Steps[ch.StepIdx]
	def := c.stepDefs[ch.Kind][ch.StepIdx]
	if def.undo != nil {
		def.undo(c, ch)
	}
	step.Status = StatusUndone
	ch.StepIdx--
	if ch.StepIdx < 0 {
		ch.Status = StatusUndone
		c.changeEvent(ch, "rolled back")
	}
	c.saveChange(ch)
	return 1
}

// resumeChanges reloads persisted change records after a restart,
// classifying each through the crash-recovery pass. Quarantined records
// (torn beyond recovery) are abandoned fail-closed: the change is gone
// and whatever it was configuring stays unconfigured. locked.
func (c *Cluster) resumeChanges() {
	for _, key := range durable.BaseKeys(c.cfg.Store, "chg/") {
		payload, state := durable.Recover(c.cfg.Store, ckptMagic, key, key+durable.ShadowSuffix)
		c.count("cluster.recovery."+state, 1)
		if payload == nil {
			c.denyEvent("cluster.ckpt", "recover",
				fmt.Errorf("change record %s torn beyond recovery; abandoned fail-closed", key))
			continue
		}
		ch, err := decodeChange(payload)
		if err != nil {
			c.denyEvent("cluster.ckpt", "decode",
				fmt.Errorf("change record %s: %w; abandoned fail-closed", key, err))
			c.cfg.Store.Delete(key)
			continue
		}
		if _, known := c.stepDefs[ch.Kind]; !known {
			c.denyEvent("cluster.ckpt", "kind",
				fmt.Errorf("change %d has unknown kind %q; abandoned fail-closed", ch.ID, ch.Kind))
			c.cfg.Store.Delete(key)
			continue
		}
		c.changes[ch.ID] = ch
		if ch.ID > c.nextChange {
			c.nextChange = ch.ID
		}
		switch ch.Status {
		case StatusDoing, StatusDo, StatusUndoing:
			c.changeEvent(ch, "resumed ("+state+")")
		}
	}
}

// Changes lists every tracked change, sorted by id.
func (c *Cluster) Changes() []*Change {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Change, 0, len(c.changes))
	for _, ch := range c.changes {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// changeEvent records a change transition with provenance. locked.
func (c *Cluster) changeEvent(ch *Change, what string) {
	if c.rec == nil || !c.rec.Active() {
		return
	}
	c.rec.M.Extra.Get("cluster.change."+ch.Status.String()).Add(0, 1)
	c.rec.Emit(telemetry.Event{
		Layer:  telemetry.LayerCluster,
		Kind:   telemetry.KindLifecycle,
		Site:   "cluster.change",
		Op:     ch.Kind,
		Detail: fmt.Sprintf("change %d step %d/%d %s: %s", ch.ID, ch.StepIdx, len(ch.Steps), ch.Status, what),
	})
}
