package difc

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// This file holds the wire/persistence encodings used by the simulated
// kernel: a compact binary form stored in inode extended attributes
// (mirroring Laminar's use of ext3 xattrs, §5.2) and a human-readable text
// form used in persistent capability files and test fixtures.

// MarshalBinary encodes the label as a length-prefixed list of big-endian
// 64-bit tags, the layout Laminar stores under security.laminar.* xattrs.
func (l Label) MarshalBinary() ([]byte, error) {
	tags := l.view()
	buf := make([]byte, 4+8*len(tags))
	binary.BigEndian.PutUint32(buf, uint32(len(tags)))
	for i, t := range tags {
		binary.BigEndian.PutUint64(buf[4+8*i:], uint64(t))
	}
	return buf, nil
}

// UnmarshalLabel decodes a label previously produced by MarshalBinary.
// It decodes into stack scratch, so decoding a label that already exists
// allocates nothing.
func UnmarshalLabel(data []byte) (Label, error) {
	if len(data) < 4 {
		return Label{}, fmt.Errorf("difc: label encoding too short: %d bytes", len(data))
	}
	n := int(binary.BigEndian.Uint32(data))
	if len(data) != 4+8*n {
		return Label{}, fmt.Errorf("difc: label encoding length mismatch: header says %d tags, body has %d bytes", n, len(data)-4)
	}
	var s scratchTags
	tags := s.buffer(n)
	for i := 0; i < n; i++ {
		tags = append(tags, Tag(binary.BigEndian.Uint64(data[4+8*i:])))
	}
	return NewLabel(tags...), nil
}

// formatText renders the label as a comma-separated list of decimal tag
// values ("" for the empty label), the format used in persistent capability
// files.
func (l Label) formatText() string {
	tags := l.view()
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = strconv.FormatUint(uint64(t), 10)
	}
	return strings.Join(parts, ",")
}

// parseLabelText parses formatText output.
func parseLabelText(s string) (Label, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Label{}, nil
	}
	parts := strings.Split(s, ",")
	tags := make([]Tag, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Label{}, fmt.Errorf("difc: bad tag %q: %v", p, err)
		}
		tags = append(tags, Tag(v))
	}
	return NewLabel(tags...), nil
}

// FormatText renders the capability set as "plus|minus" with each side in
// Label.formatText form.
func (c CapSet) FormatText() string {
	return c.plus.formatText() + "|" + c.minus.formatText()
}

// ParseCapSetText parses CapSet.FormatText output.
func ParseCapSetText(s string) (CapSet, error) {
	plusStr, minusStr, ok := strings.Cut(s, "|")
	if !ok {
		return CapSet{}, fmt.Errorf("difc: bad capset encoding %q: missing separator", s)
	}
	plus, err := parseLabelText(plusStr)
	if err != nil {
		return CapSet{}, err
	}
	minus, err := parseLabelText(minusStr)
	if err != nil {
		return CapSet{}, err
	}
	return CapSet{plus: plus, minus: minus}, nil
}
