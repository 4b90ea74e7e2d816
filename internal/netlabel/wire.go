// Package netlabel is the cross-kernel labeled transport: a wire
// protocol that lets two (or N) Kernel instances exchange labeled
// messages over real TCP, with every flow checked by the receiving
// kernel's LSM exactly as a local socket operation.
//
// The protocol (DESIGN.md §12):
//
//   - Every connection starts with a Hello/HelloAck handshake carrying
//     the protocol version and the peer's node id. A version mismatch is
//     rejected fail-closed with LayerNet telemetry provenance.
//   - A channel is opened with an Open frame carrying the channel's
//     secrecy/integrity labels in the canonical difc binary encoding
//     (sorted, deduplicated tags — the interned form). The accepting
//     kernel adopts the labels onto a fresh endpoint inode; whether any
//     local task may then use the channel is decided per operation by
//     the ordinary LSM hooks.
//   - Data frames carry payload bytes that already passed the sender's
//     Send check. Anything that goes wrong after that — full buffers,
//     dropped frames, killed links, denied receives — is silence, never
//     an error the sender can observe: the paper's unreliable-channel
//     rule (§5.2), extended to the network.
//
// Frames are length-prefixed and versioned; the codec is fuzzed
// (FuzzLabelWire, FuzzFrameDecode) and rejects oversized or malformed
// input without allocation proportional to attacker-controlled lengths.
package netlabel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"laminar/internal/difc"
	"laminar/internal/telemetry"
)

// Wire constants.
const (
	// Magic starts every frame: "LN" big-endian.
	Magic uint16 = 0x4C4E
	// Version is the protocol version this build speaks. Peers with a
	// different version are rejected during the handshake.
	Version byte = 1
	// HeaderSize is the fixed frame header length.
	HeaderSize = 12
	// MaxPayload bounds a frame payload; larger lengths are malformed
	// (fail closed before any allocation).
	MaxPayload = 1 << 20
)

// FrameType discriminates frames.
type FrameType byte

// Frame types. Hello/HelloAck are only legal during the handshake;
// Open/Data/Close/Ctrl/OpenRouted only after it.
//
// Ctrl frames carry opaque payloads for a layer above the transport (the
// cluster label plane, internal/cluster): membership heartbeats, join
// negotiation, epoch announcements. The transport moves them verbatim and
// never interprets them; a node with no Control handler drops them
// fail-closed.
//
// OpenRouted frames open a channel that an intermediate node forwards
// toward a final destination. The payload is the channel labels followed
// by a routing blob the upper layer interprets; a node with no Routed
// handler drops the open fail-closed, exactly as if the link had eaten
// it.
const (
	FrameHello FrameType = 1 + iota
	FrameHelloAck
	FrameOpen
	FrameData
	FrameClose
	FrameCtrl
	FrameOpenRouted
	frameTypeMax = FrameOpenRouted
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameOpen:
		return "open"
	case FrameData:
		return "data"
	case FrameClose:
		return "close"
	case FrameCtrl:
		return "ctrl"
	case FrameOpenRouted:
		return "open-routed"
	default:
		return "unknown"
	}
}

// Frame is one decoded wire frame.
//
// Header layout (big-endian): magic u16 | version u8 | type u8 |
// channel u32 | payload length u32, then the payload.
type Frame struct {
	Version byte
	Type    FrameType
	Channel uint32
	Payload []byte
}

// Codec errors.
var (
	// ErrShort reports an incomplete frame: the caller needs more bytes.
	ErrShort = errors.New("netlabel: short frame")
	// ErrMalformed reports an unparseable or out-of-bounds frame; the
	// connection carrying it is dead (fail closed).
	ErrMalformed = errors.New("netlabel: malformed frame")
)

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], Magic)
	hdr[2] = f.Version
	hdr[3] = byte(f.Type)
	binary.BigEndian.PutUint32(hdr[4:], f.Channel)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// DecodeFrame parses one frame from the front of b, returning the frame
// and the bytes consumed. ErrShort means b holds a valid prefix of a
// frame; anything structurally wrong is ErrMalformed. The payload is
// copied, so the caller may reuse b. The version byte is NOT validated
// here: the handshake and the per-connection receive path reject
// mismatches with provenance, which a codec error could not carry.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return Frame{}, 0, fmt.Errorf("%w: bad magic %#x", ErrMalformed, binary.BigEndian.Uint16(b))
	}
	typ := FrameType(b[3])
	if typ == 0 || typ > frameTypeMax {
		return Frame{}, 0, fmt.Errorf("%w: unknown frame type %d", ErrMalformed, b[3])
	}
	n := binary.BigEndian.Uint32(b[8:])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrMalformed, n, MaxPayload)
	}
	total := HeaderSize + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrShort
	}
	f := Frame{
		Version: b[2],
		Type:    typ,
		Channel: binary.BigEndian.Uint32(b[4:]),
	}
	if n > 0 {
		f.Payload = append([]byte(nil), b[HeaderSize:total]...)
	}
	return f, total, nil
}

// AppendLabels encodes a label pair in the canonical difc binary form
// (each label length-prefixed, tags sorted big-endian — the layout the
// LSM persists in xattrs), secrecy first.
func AppendLabels(dst []byte, l difc.Labels) []byte {
	s, _ := l.S.MarshalBinary()
	i, _ := l.I.MarshalBinary()
	return append(append(dst, s...), i...)
}

// ParseLabels decodes a label pair from the front of b, returning the
// labels and bytes consumed. The decoded labels are canonicalized by
// construction (difc.NewLabel sorts and deduplicates), so a hostile
// non-canonical encoding cannot smuggle a second representation of the
// same lattice point into the label checks.
func ParseLabels(b []byte) (difc.Labels, int, error) {
	s, n, err := parseLabel(b)
	if err != nil {
		return difc.Labels{}, 0, err
	}
	i, m, err := parseLabel(b[n:])
	if err != nil {
		return difc.Labels{}, 0, err
	}
	return difc.Labels{S: s, I: i}, n + m, nil
}

func parseLabel(b []byte) (difc.Label, int, error) {
	if len(b) < 4 {
		return difc.Label{}, 0, fmt.Errorf("%w: truncated label header", ErrMalformed)
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxPayload/8 {
		return difc.Label{}, 0, fmt.Errorf("%w: label tag count %d", ErrMalformed, n)
	}
	total := 4 + 8*int(n)
	if len(b) < total {
		return difc.Label{}, 0, fmt.Errorf("%w: truncated label body", ErrMalformed)
	}
	l, err := difc.UnmarshalLabel(b[:total])
	if err != nil {
		return difc.Label{}, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return l, total, nil
}

// AppendRoutedOpen encodes an OpenRouted payload: the channel labels in
// the canonical form, then a length-prefixed opaque routing blob.
func AppendRoutedOpen(dst []byte, l difc.Labels, meta []byte) []byte {
	dst = AppendLabels(dst, l)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(meta)))
	dst = append(dst, n[:]...)
	return append(dst, meta...)
}

// ParseRoutedOpen decodes an OpenRouted payload. The meta blob is
// copied. Bytes after the meta blob are returned as ext — the region
// versioned extensions (the trace context) occupy; ParseTraceExt decides
// whether that region is acceptable, so an empty tail stays valid for
// peers that send none.
func ParseRoutedOpen(b []byte) (difc.Labels, []byte, []byte, error) {
	labels, n, err := ParseLabels(b)
	if err != nil {
		return difc.Labels{}, nil, nil, err
	}
	rest := b[n:]
	if len(rest) < 4 {
		return difc.Labels{}, nil, nil, fmt.Errorf("%w: truncated routed-open meta header", ErrMalformed)
	}
	m := binary.BigEndian.Uint32(rest)
	if int(m) > len(rest)-4 {
		return difc.Labels{}, nil, nil, fmt.Errorf("%w: routed-open meta length %d, have %d", ErrMalformed, m, len(rest)-4)
	}
	meta := append([]byte(nil), rest[4:4+m]...)
	return labels, meta, rest[4+m:], nil
}

// Trace extension: an optional, versioned trailing block on Open and
// OpenRouted payloads carrying the telemetry trace context (DESIGN.md
// §16). Layout: magic 'T' u8 | ext version u8 | trace id u64 | hop u8 |
// origin node u64 | origin epoch u64.
//
// Compatibility is deliberately asymmetric: an ABSENT extension is fine
// (old peers never send one), but a PRESENT extension must parse — a
// recognized magic with an unknown version fails with ErrTraceVersion so
// the receiver can refuse just that open (a future peer is not an
// attacker; the rest of the connection stands), while structurally
// broken bytes are ErrMalformed like any other hostile frame.
const (
	traceExtMagic byte = 'T'
	// TraceExtVersion is the trace extension version this build writes.
	TraceExtVersion byte = 1
	traceExtSize         = 27
)

// ErrTraceVersion reports a trace extension from a newer build: the
// carrying open is refused fail-closed, the connection survives.
var ErrTraceVersion = errors.New("netlabel: unsupported trace extension version")

// AppendTraceExt encodes the trace context as a trailing extension.
func AppendTraceExt(dst []byte, ctx telemetry.TraceCtx) []byte {
	var p [traceExtSize]byte
	p[0] = traceExtMagic
	p[1] = TraceExtVersion
	binary.BigEndian.PutUint64(p[2:], ctx.TraceID)
	p[10] = ctx.Hop
	binary.BigEndian.PutUint64(p[11:], ctx.Origin)
	binary.BigEndian.PutUint64(p[19:], ctx.OriginEpoch)
	return append(dst, p[:]...)
}

// ParseTraceExt decodes the extension region of an Open/OpenRouted
// payload. An empty region means no context (ok=false, no error); an
// unknown version is ErrTraceVersion; anything else that does not parse
// exactly is ErrMalformed.
func ParseTraceExt(b []byte) (telemetry.TraceCtx, bool, error) {
	if len(b) == 0 {
		return telemetry.TraceCtx{}, false, nil
	}
	if b[0] != traceExtMagic {
		return telemetry.TraceCtx{}, false, fmt.Errorf("%w: unknown open extension %#x", ErrMalformed, b[0])
	}
	if len(b) < 2 {
		return telemetry.TraceCtx{}, false, fmt.Errorf("%w: truncated trace extension", ErrMalformed)
	}
	if b[1] != TraceExtVersion {
		return telemetry.TraceCtx{}, false, fmt.Errorf("%w %d (speak %d)", ErrTraceVersion, b[1], TraceExtVersion)
	}
	if len(b) != traceExtSize {
		return telemetry.TraceCtx{}, false, fmt.Errorf("%w: trace extension %d bytes, want %d", ErrMalformed, len(b), traceExtSize)
	}
	ctx := telemetry.TraceCtx{
		TraceID:     binary.BigEndian.Uint64(b[2:]),
		Hop:         b[10],
		Origin:      binary.BigEndian.Uint64(b[11:]),
		OriginEpoch: binary.BigEndian.Uint64(b[19:]),
	}
	return ctx, ctx.TraceID != 0, nil
}

// helloPayload is the handshake body: the speaker's protocol version
// (echoed in the payload so the rejection path can name both versions
// even if header parsing becomes laxer) and its 8-byte node id.
const helloPayloadSize = 9

// AppendHello encodes a Hello/HelloAck payload.
func AppendHello(dst []byte, version byte, nodeID uint64) []byte {
	var p [helloPayloadSize]byte
	p[0] = version
	binary.BigEndian.PutUint64(p[1:], nodeID)
	return append(dst, p[:]...)
}

// ParseHello decodes a Hello/HelloAck payload.
func ParseHello(b []byte) (version byte, nodeID uint64, err error) {
	if len(b) != helloPayloadSize {
		return 0, 0, fmt.Errorf("%w: hello payload %d bytes", ErrMalformed, len(b))
	}
	return b[0], binary.BigEndian.Uint64(b[1:]), nil
}
