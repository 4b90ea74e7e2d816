package netlabel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"laminar/internal/difc"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Version: Version, Type: FrameHello, Payload: appendHello(nil, Version, 42)},
		{Version: Version, Type: FrameOpen, Channel: 7, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0}},
		{Version: Version, Type: FrameData, Channel: 3, Payload: []byte("payload")},
		{Version: Version, Type: FrameClose, Channel: 1 << 30},
		{Version: 9, Type: FrameData, Channel: 0, Payload: nil}, // foreign version still decodes
	}
	var wire []byte
	for _, f := range frames {
		wire = appendFrame(wire, f)
	}
	for i, want := range frames {
		got, n, err := decodeFrame(wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Version != want.Version || got.Type != want.Type ||
			got.Channel != want.Channel || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		wire = wire[n:]
	}
	if len(wire) != 0 {
		t.Fatalf("%d trailing bytes", len(wire))
	}
}

func TestDecodeFrameShort(t *testing.T) {
	full := appendFrame(nil, Frame{Version: Version, Type: FrameData, Channel: 1, Payload: []byte("abcd")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeFrame(full[:cut]); err != ErrShort {
			t.Fatalf("prefix %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	good := appendFrame(nil, Frame{Version: Version, Type: FrameData, Payload: []byte("x")})

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0xFF
	if _, _, err := decodeFrame(badMagic); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad magic: %v", err)
	}

	badType := append([]byte(nil), good...)
	badType[3] = byte(frameTypeMax) + 1
	if _, _, err := decodeFrame(badType); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad type: %v", err)
	}
	badType[3] = 0
	if _, _, err := decodeFrame(badType); !errors.Is(err, ErrMalformed) {
		t.Errorf("zero type: %v", err)
	}

	// An attacker-controlled length beyond MaxPayload must be rejected
	// before any allocation, not treated as a short read forever.
	oversize := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(oversize[8:], MaxPayload+1)
	if _, _, err := decodeFrame(oversize); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversize: %v", err)
	}
}

func TestDecodePayloadIsCopied(t *testing.T) {
	wire := appendFrame(nil, Frame{Version: Version, Type: FrameData, Payload: []byte("abcd")})
	f, _, err := decodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire[HeaderSize] = 'Z'
	if string(f.Payload) != "abcd" {
		t.Fatalf("payload aliases input buffer: %q", f.Payload)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	cases := []difc.Labels{
		{},
		{S: difc.NewLabel(1, 2, 3)},
		{I: difc.NewLabel(99)},
		{S: difc.NewLabel(7, 8), I: difc.NewLabel(1, 1<<62)},
	}
	for i, want := range cases {
		b := appendLabels(nil, want)
		got, n, err := parseLabels(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(b))
		}
		if !got.Equal(want) {
			t.Fatalf("case %d: got %v want %v", i, got, want)
		}
	}
}

func TestParseLabelsCanonicalizes(t *testing.T) {
	// Handcraft a non-canonical encoding: duplicated, unsorted tags. The
	// parser must produce the one canonical lattice point — a hostile
	// peer cannot smuggle two representations of the same label.
	var b []byte
	b = binary.BigEndian.AppendUint32(b, 3)
	for _, tag := range []uint64{5, 2, 5} {
		b = binary.BigEndian.AppendUint64(b, tag)
	}
	b = binary.BigEndian.AppendUint32(b, 0) // empty integrity label
	got, _, err := parseLabels(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.S.Equal(difc.NewLabel(2, 5)) {
		t.Fatalf("parsed %v, want canonical {2,5}", got.S)
	}
}

func TestParseLabelsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0},             // truncated header
		{0, 0, 0, 2, 0, 0}, // tag count 2, body truncated
		binary.BigEndian.AppendUint32(nil, MaxPayload), // absurd tag count
	}
	for i, b := range cases {
		if _, _, err := parseLabels(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b := appendHello(nil, Version, 0xDEADBEEF)
	ver, id, err := parseHello(b)
	if err != nil || ver != Version || id != 0xDEADBEEF {
		t.Fatalf("hello = %d, %#x, %v", ver, id, err)
	}
	if _, _, err := parseHello(b[:4]); !errors.Is(err, ErrMalformed) {
		t.Errorf("short hello: %v", err)
	}
}
