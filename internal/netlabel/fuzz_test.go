package netlabel

import (
	"bytes"
	"testing"

	"laminar/internal/difc"
)

// FuzzLabelWire fuzzes the label codec: any input either fails cleanly
// or parses to labels whose canonical re-encoding round-trips to the
// same lattice point (parse∘encode is the identity on canonical forms,
// and parse canonicalizes everything else).
func FuzzLabelWire(f *testing.F) {
	f.Add(appendLabels(nil, difc.Labels{}))
	f.Add(appendLabels(nil, difc.Labels{S: difc.NewLabel(1, 2, 3), I: difc.NewLabel(9)}))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, n, err := parseLabels(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := appendLabels(nil, l)
		l2, n2, err := parseLabels(enc)
		if err != nil {
			t.Fatalf("re-parse of canonical encoding failed: %v", err)
		}
		if n2 != len(enc) || !l2.Equal(l) {
			t.Fatalf("round trip changed labels: %v -> %v", l, l2)
		}
		// Canonical encodings are a fixed point.
		if !bytes.Equal(appendLabels(nil, l2), enc) {
			t.Fatal("canonical encoding is not stable")
		}
	})
}

// FuzzFrameDecode fuzzes the frame codec: no panic, no allocation
// proportional to attacker-claimed lengths, and decoded frames re-encode
// to the exact consumed bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add(appendFrame(nil, Frame{Version: Version, Type: FrameData, Channel: 5, Payload: []byte("hi")}))
	f.Add(appendFrame(nil, Frame{Version: Version, Type: FrameHello, Payload: appendHello(nil, Version, 1)}))
	f.Add([]byte{0x4C, 0x4E, 1, 4, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(appendFrame(nil, fr), data[:n]) {
			t.Fatal("re-encode differs from consumed bytes")
		}
	})
}
