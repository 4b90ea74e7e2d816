package lsm

import (
	"encoding/binary"
	"fmt"

	"laminar/internal/difc"
	"laminar/internal/durable"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// Crash-consistent label persistence.
//
// Labels are durable state: if an inode's labels are lost while its data
// survives, a previously secret file becomes world-readable — the one
// failure DIFC can never afford. Laminar inherits ext3's xattr journaling
// for this; the simulated module instead commits label records through
// the shared shadow-write + flip protocol (internal/durable) over the
// kernel's (deliberately non-atomic under fault injection) xattr store:
// XattrLabelShadow is the shadow, XattrLabel the commit. What stays here
// is the module's policy: unlabeled inodes carry no record at all, and a
// record torn beyond repair QUARANTINES the inode — relabeled with a
// secrecy tag for which no principal holds capabilities, i.e. maximally
// restricted. Recovery never guesses toward readable (fail closed,
// DESIGN.md §8).

// Xattr names for the commit/shadow label records.
const (
	XattrLabel       = "security.laminar.label"
	XattrLabelShadow = "security.laminar.label.shadow"
)

// recMagic heads every label record.
var recMagic = [4]byte{'L', 'M', 'L', '1'}

// persistSites are the fault sites of a label commit.
var persistSites = durable.Sites{Shadow: "persist.shadow", Commit: "persist.commit", Clear: "persist.clear"}

// xattrs adapts an inode's extended attributes to durable.Store. It is
// one pointer wide, so wrapping an inode allocates nothing.
type xattrs struct{ ino *kernel.Inode }

func (x xattrs) Get(name string) ([]byte, bool) { return x.ino.GetXattr(name) }
func (x xattrs) Set(name string, val []byte)    { x.ino.SetXattr(name, val) }
func (x xattrs) Delete(name string)             { x.ino.RemoveXattr(name) }
func (x xattrs) Keys() []string                 { return x.ino.ListXattrs() }

// encodeLabelRecord serializes labels as
// magic | uvarint len(S) | S | uvarint len(I) | I | crc32(payload).
func encodeLabelRecord(labels difc.Labels) ([]byte, error) {
	sb, err := labels.S.MarshalBinary()
	if err != nil {
		return nil, err
	}
	ib, err := labels.I.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := durable.Begin(recMagic, 2*binary.MaxVarintLen64+len(sb)+len(ib))
	buf = binary.AppendUvarint(buf, uint64(len(sb)))
	buf = append(buf, sb...)
	buf = binary.AppendUvarint(buf, uint64(len(ib)))
	buf = append(buf, ib...)
	return durable.Seal(buf), nil
}

// decodeLabelPayload parses an opened record's payload; a malformed
// payload is an error (the record is as unusable as a torn one).
func decodeLabelPayload(rest []byte) (difc.Labels, error) {
	var out difc.Labels
	sLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < sLen {
		return out, fmt.Errorf("label record bad secrecy length")
	}
	rest = rest[n:]
	s, err := difc.UnmarshalLabel(rest[:sLen])
	if err != nil {
		return out, err
	}
	rest = rest[sLen:]
	iLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != iLen {
		return out, fmt.Errorf("label record bad integrity length")
	}
	i, err := difc.UnmarshalLabel(rest[n:])
	if err != nil {
		return out, err
	}
	out.S, out.I = s, i
	return out, nil
}

// SetFaultInjector installs a fault injector on the module's persistence
// path (sites "persist.shadow", "persist.commit", "persist.clear"). The
// chaos harness installs it after boot labeling; production leaves it nil.
func (m *Module) SetFaultInjector(inj faultinject.Injector) { m.inj = inj }

// SetTelemetry installs the telemetry recorder for LSM-internal events
// the kernel's hook gate cannot observe: silently dropped capability
// transfers and crash-recovery outcomes. laminar.NewSystem wires this to
// the kernel's recorder; nil disables.
func (m *Module) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// persistFault consults the injector at a persistence step (see
// kernel.PersistFault): on a Crash the kernel kills the acting task.
func (m *Module) persistFault(site string) error { return kernel.PersistFault(m.inj, site) }

// persistCommit commits ino's labels through the shadow-write + flip
// protocol. Under an injected fault the step in progress tears and the
// error propagates; every reachable intermediate state is one the
// recovery pass handles.
func (m *Module) persistCommit(ino *kernel.Inode, labels difc.Labels) error {
	if ino.Type != kernel.TypeRegular && ino.Type != kernel.TypeDir {
		return nil // pipes and devices have no persistent labels
	}
	if labels.IsEmpty() {
		// Unlabeled inodes carry no xattrs at all (the implicit empty
		// label, §3.1) — this keeps the common create path cheap, which is
		// where Table 2's 0k-create number comes from. Only an inode that
		// once had a record needs an explicit empty one.
		if _, ok := ino.GetXattr(XattrLabel); !ok {
			return nil
		}
	}
	rec, err := encodeLabelRecord(labels)
	if err != nil {
		return err
	}
	return durable.Write(xattrs{ino}, XattrLabel, XattrLabelShadow, rec, persistSites, m.persistFault)
}

// recoverInodeLabels classifies an inode's persistent label state and
// returns the labels to use, repairing the records in place (see
// durable.Recover). The module's policy on top: a record that opens but
// does not parse is as unknowable as a torn one, and an unknowable record
// is replaced by the quarantine label — never by the readable empty one.
//
// Return states: "clean", "rolled-forward", "quarantined", "unlabeled".
func (m *Module) recoverInodeLabels(ino *kernel.Inode) (difc.Labels, string) {
	payload, state := durable.Recover(xattrs{ino}, recMagic, XattrLabel, XattrLabelShadow)
	if state == durable.Absent {
		return difc.Labels{}, "unlabeled"
	}
	if payload != nil {
		if labels, err := decodeLabelPayload(payload); err == nil {
			return labels, state
		}
	}
	// Fail closed: quarantine with a secrecy tag no principal holds
	// capabilities for, never fall back to readable.
	q := difc.Labels{S: difc.NewLabel(m.quarantineTag)}
	if rec, err := encodeLabelRecord(q); err == nil {
		ino.SetXattr(XattrLabel, rec)
	}
	return q, durable.Quarantined
}

// RecoveryStats summarizes a RecoverLabels pass.
type RecoveryStats struct {
	Clean         int
	RolledForward int
	Quarantined   int
}

// RecoverLabels simulates the post-crash boot pass: every in-memory label
// blob is discarded (the "memory" lost in the crash) and rebuilt from the
// persistent records, rolling torn states forward or quarantining them.
// After it returns, no inode is readable under weaker labels than the last
// successfully committed record, and no torn record yields a readable
// inode.
func (m *Module) RecoverLabels(k *kernel.Kernel) RecoveryStats {
	var st RecoveryStats
	k.WalkInodes(func(ino *kernel.Inode) {
		ino.Security = nil
		labels, state := m.recoverInodeLabels(ino)
		ino.Security = &inodeSec{labels: labels}
		if m.tel != nil && m.tel.Active() {
			m.tel.M.Extra.Inc("lsm.recovery."+state, 0)
		}
		switch state {
		case "clean":
			st.Clean++
		case "rolled-forward":
			st.RolledForward++
		case "quarantined":
			st.Quarantined++
		}
	})
	return st
}
