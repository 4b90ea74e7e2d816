package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Cluster control-plane codec. Every message rides a netlabel Ctrl frame
// and leads with (type, from, incarnation epoch): the epoch is what makes
// a reconnecting node's old traffic rejectable fail-closed, so it is not
// optional per message type. Parsing is strict — anything malformed is an
// error and the frame is dropped, never partially applied.

// ErrCtrlMalformed reports an unparseable control payload.
var ErrCtrlMalformed = errors.New("cluster: malformed control message")

// msgType discriminates control messages.
type msgType byte

// Control message types. Type 5 is retired (it carried a tag-authority
// table nothing read) and is rejected as unknown; the numbers of the
// remaining types are wire format and never shift.
const (
	msgPing    msgType = 1 // heartbeat, carries membership gossip
	msgJoinReq msgType = 2 // "let me in": sender wants the member table
	msgJoinAck msgType = 3 // reply to JoinReq with the full table
	msgLeave   msgType = 4 // orderly departure (drain)
	msgStats   msgType = 6 // per-node metrics snapshot (JSON blob)
	msgTypeMax         = msgStats
)

// String names the message type.
func (t msgType) String() string {
	switch t {
	case msgPing:
		return "ping"
	case msgJoinReq:
		return "join-req"
	case msgJoinAck:
		return "join-ack"
	case msgLeave:
		return "leave"
	case msgStats:
		return "stats"
	default:
		return "unknown"
	}
}

// memberWire is one gossiped membership entry.
type memberWire struct {
	ID    uint64
	Epoch uint64
	State MemberState
	Addr  string
}

// ctrlMsg is one decoded control message.
type ctrlMsg struct {
	Type    msgType
	From    uint64
	Epoch   uint64
	Addr    string       // sender's listen address (dial-back key)
	Members []memberWire // ping / join-ack gossip
	Blob    []byte       // msgStats only: JSON metrics snapshot
	Budget  []byte       // msgStats only, optional: budget fact set (ISSUE 10)
}

const maxCtrlString = 256
const maxCtrlList = 1024
const maxStatsBlob = 256 * 1024

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func parseString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string header", ErrCtrlMalformed)
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > maxCtrlString || len(b) < 2+n {
		return "", nil, fmt.Errorf("%w: string length %d", ErrCtrlMalformed, n)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func parseU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated u64", ErrCtrlMalformed)
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// encodeCtrl serializes m.
func encodeCtrl(m ctrlMsg) []byte {
	buf := []byte{byte(m.Type)}
	buf = binary.BigEndian.AppendUint64(buf, m.From)
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = appendString(buf, m.Addr)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Members)))
	for _, mem := range m.Members {
		buf = binary.BigEndian.AppendUint64(buf, mem.ID)
		buf = binary.BigEndian.AppendUint64(buf, mem.Epoch)
		buf = append(buf, byte(mem.State))
		buf = appendString(buf, mem.Addr)
	}
	if m.Type == msgStats {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Blob)))
		buf = append(buf, m.Blob...)
		// The budget fact set rides as a SECOND length-prefixed blob,
		// appended only when present: a pre-budget peer parsing the frame
		// sees no trailing bytes, and a budget-aware peer parsing a
		// pre-budget frame finds no second blob — both directions
		// interoperate without a version bump.
		if len(m.Budget) > 0 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Budget)))
			buf = append(buf, m.Budget...)
		}
	}
	return buf
}

// parseCtrl decodes one control payload, strictly.
func parseCtrl(b []byte) (ctrlMsg, error) {
	var m ctrlMsg
	if len(b) < 1 {
		return m, fmt.Errorf("%w: empty payload", ErrCtrlMalformed)
	}
	m.Type = msgType(b[0])
	switch m.Type {
	case msgPing, msgJoinReq, msgJoinAck, msgLeave, msgStats:
	default:
		return m, fmt.Errorf("%w: unknown type %d", ErrCtrlMalformed, b[0])
	}
	var err error
	b = b[1:]
	if m.From, b, err = parseU64(b); err != nil {
		return m, err
	}
	if m.Epoch, b, err = parseU64(b); err != nil {
		return m, err
	}
	if m.Addr, b, err = parseString(b); err != nil {
		return m, err
	}
	if len(b) < 2 {
		return m, fmt.Errorf("%w: truncated member count", ErrCtrlMalformed)
	}
	nm := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if nm > maxCtrlList {
		return m, fmt.Errorf("%w: member count %d", ErrCtrlMalformed, nm)
	}
	for i := 0; i < nm; i++ {
		var mem memberWire
		if mem.ID, b, err = parseU64(b); err != nil {
			return m, err
		}
		if mem.Epoch, b, err = parseU64(b); err != nil {
			return m, err
		}
		if len(b) < 1 {
			return m, fmt.Errorf("%w: truncated member state", ErrCtrlMalformed)
		}
		mem.State = MemberState(b[0])
		if mem.State > StateDead {
			return m, fmt.Errorf("%w: member state %d", ErrCtrlMalformed, b[0])
		}
		b = b[1:]
		if mem.Addr, b, err = parseString(b); err != nil {
			return m, err
		}
		m.Members = append(m.Members, mem)
	}
	if m.Type == msgStats {
		if len(b) < 4 {
			return m, fmt.Errorf("%w: truncated blob header", ErrCtrlMalformed)
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > maxStatsBlob || len(b) < n {
			return m, fmt.Errorf("%w: blob length %d with %d bytes", ErrCtrlMalformed, n, len(b))
		}
		m.Blob = append([]byte(nil), b[:n]...)
		b = b[n:]
		// Optional second blob: the budget fact set. Absent bytes mean no
		// facts (old peer); present bytes must frame exactly.
		if len(b) > 0 {
			if len(b) < 4 {
				return m, fmt.Errorf("%w: truncated budget blob header", ErrCtrlMalformed)
			}
			bn := int(binary.BigEndian.Uint32(b))
			b = b[4:]
			if bn > maxStatsBlob || len(b) != bn {
				return m, fmt.Errorf("%w: budget blob length %d with %d bytes", ErrCtrlMalformed, bn, len(b))
			}
			m.Budget = append([]byte(nil), b...)
			b = nil
		}
	}
	if len(b) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrCtrlMalformed, len(b))
	}
	return m, nil
}

// routeMeta is the routing blob an OpenRouted frame carries: the origin's
// identity and incarnation epoch (so every hop can reject a stale
// incarnation's opens fail-closed) and the hops still to visit — empty
// means the receiving node is the destination. The channel labels are
// not here: the frame carries them in full canonical form.
type routeMeta struct {
	Origin      uint64
	OriginEpoch uint64
	Path        []uint64
}

// encodeRoute serializes r.
func encodeRoute(r routeMeta) []byte {
	buf := binary.BigEndian.AppendUint64(nil, r.Origin)
	buf = binary.BigEndian.AppendUint64(buf, r.OriginEpoch)
	buf = append(buf, byte(len(r.Path)))
	for _, hop := range r.Path {
		buf = binary.BigEndian.AppendUint64(buf, hop)
	}
	return buf
}

// maxRouteHops bounds a route; longer paths are malformed (and a loop
// would re-check at every hop anyway, so nothing needs them).
const maxRouteHops = 16

// parseRoute decodes a routing blob, strictly.
func parseRoute(b []byte) (routeMeta, error) {
	var r routeMeta
	var err error
	if r.Origin, b, err = parseU64(b); err != nil {
		return r, err
	}
	if r.OriginEpoch, b, err = parseU64(b); err != nil {
		return r, err
	}
	if len(b) < 1 {
		return r, fmt.Errorf("%w: truncated hop count", ErrCtrlMalformed)
	}
	n := int(b[0])
	b = b[1:]
	if n > maxRouteHops || len(b) != 8*n {
		return r, fmt.Errorf("%w: hop count %d with %d bytes", ErrCtrlMalformed, n, len(b))
	}
	for i := 0; i < n; i++ {
		var hop uint64
		hop, b, _ = parseU64(b)
		r.Path = append(r.Path, hop)
	}
	return r, nil
}
