package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// Crash-consistent label persistence.
//
// Labels are durable state: if an inode's labels are lost while its data
// survives, a previously secret file becomes world-readable — the one
// failure DIFC can never afford. Laminar inherits ext3's xattr journaling
// for this; the simulated module instead implements its own shadow-write +
// flip protocol over the kernel's (deliberately non-atomic under fault
// injection) xattr store:
//
//	1. write the full checksummed record to XattrLabelShadow
//	2. write the same record to XattrLabel (the flip)
//	3. remove XattrLabelShadow
//
// A crash at any step leaves a state the recovery pass can classify:
// a valid commit record wins; a torn or missing commit rolls forward from
// a valid shadow; a torn shadow with no valid commit means the labels are
// unknowable, and the inode is QUARANTINED — relabeled with a secrecy tag
// for which no principal holds capabilities, i.e. maximally restricted.
// Recovery never guesses toward readable (fail closed, DESIGN.md §8).

// Xattr names for the commit/shadow label records.
const (
	XattrLabel       = "security.laminar.label"
	XattrLabelShadow = "security.laminar.label.shadow"
)

// recMagic heads every label record.
var recMagic = [4]byte{'L', 'M', 'L', '1'}

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
	buf := make([]byte, 0, 4+2*binary.MaxVarintLen64+len(sb)+len(ib)+4)
	buf = append(buf, recMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(sb)))
	buf = append(buf, sb...)
	buf = binary.AppendUvarint(buf, uint64(len(ib)))
	buf = append(buf, ib...)
	sum := crc32.ChecksumIEEE(buf)
	buf = binary.BigEndian.AppendUint32(buf, sum)
	return buf, nil
}

// decodeLabelRecord validates and parses a record; any truncation, magic
// mismatch or checksum failure is an error (the record is "torn").
func decodeLabelRecord(data []byte) (difc.Labels, error) {
	var out difc.Labels
	if len(data) < len(recMagic)+4 {
		return out, fmt.Errorf("label record truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != recMagic {
		return out, fmt.Errorf("label record bad magic %q", data[:4])
	}
	payload, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(sumBytes) {
		return out, fmt.Errorf("label record checksum mismatch")
	}
	rest := payload[4:]
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

// persistFault consults the injector at a persistence step. An Error is a
// transient media failure (EIO); a Crash is the machine dying mid-step
// (EKILLED) — the kernel kills the acting task and the on-disk state stays
// exactly as the steps so far left it.
func (m *Module) persistFault(site string) error {
	if m.inj == nil {
		return nil
	}
	switch m.inj.At(site) {
	case faultinject.Error:
		return fmt.Errorf("%w: injected fault at %s", kernel.ErrIO, site)
	case faultinject.Crash:
		return kernel.ErrKilled
	default:
		return nil
	}
}

// persistCommit runs the shadow-write + flip protocol for ino's labels.
// Under an injected fault the step in progress tears — half the record is
// written — and the error propagates; every reachable intermediate state
// is one the recovery pass handles.
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
	if ferr := m.persistFault("persist.shadow"); ferr != nil {
		ino.SetXattr(XattrLabelShadow, rec[:len(rec)/2]) // torn shadow
		return ferr
	}
	ino.SetXattr(XattrLabelShadow, rec)
	if ferr := m.persistFault("persist.commit"); ferr != nil {
		ino.SetXattr(XattrLabel, rec[:len(rec)/2]) // torn commit, shadow intact
		return ferr
	}
	ino.SetXattr(XattrLabel, rec)
	if ferr := m.persistFault("persist.clear"); ferr != nil {
		return ferr // shadow left behind; commit is valid, recovery clears it
	}
	ino.RemoveXattr(XattrLabelShadow)
	return nil
}

// recoverInodeLabels classifies an inode's persistent label state and
// returns the labels to use, repairing the records in place. Recovery
// writes bypass fault injection: this is the fsck-style pass that runs
// with the system quiesced and must complete.
//
// Return states: "clean" (valid commit, nothing to do), "rolled-forward"
// (commit rebuilt from a valid shadow), "quarantined" (no trustworthy
// record — maximally restricted labels installed), "unlabeled".
func (m *Module) recoverInodeLabels(ino *kernel.Inode) (difc.Labels, string) {
	commit, hasCommit := ino.GetXattr(XattrLabel)
	shadow, hasShadow := ino.GetXattr(XattrLabelShadow)
	if hasCommit {
		if labels, err := decodeLabelRecord(commit); err == nil {
			// Commit is authoritative; a leftover shadow just means the
			// crash hit after the flip.
			ino.RemoveXattr(XattrLabelShadow)
			return labels, "clean"
		}
	}
	if hasShadow {
		if labels, err := decodeLabelRecord(shadow); err == nil {
			// The flip never landed (or tore); the shadow holds the full
			// intended record. Roll forward.
			ino.SetXattr(XattrLabel, shadow)
			ino.RemoveXattr(XattrLabelShadow)
			return labels, "rolled-forward"
		}
	}
	if hasCommit || hasShadow {
		// Some record existed but nothing decodes: the true labels are
		// unknowable. Fail closed — quarantine with a secrecy tag no
		// principal holds capabilities for, never fall back to readable.
		q := difc.Labels{S: difc.NewLabel(m.quarantineTag)}
		if rec, err := encodeLabelRecord(q); err == nil {
			ino.SetXattr(XattrLabel, rec)
		}
		ino.RemoveXattr(XattrLabelShadow)
		return q, "quarantined"
	}
	return difc.Labels{}, "unlabeled"
}

// RecoveryStats summarizes a RecoverLabels pass.
type RecoveryStats struct {
	Scanned       int
	Clean         int
	RolledForward int
	Quarantined   int
	Unlabeled     int
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
		st.Scanned++
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
		default:
			st.Unlabeled++
		}
	})
	return st
}
