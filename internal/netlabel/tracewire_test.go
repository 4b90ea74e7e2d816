package netlabel

import (
	"errors"
	"testing"

	"laminar/internal/telemetry"
)

func TestTraceExtRoundTrip(t *testing.T) {
	ctx := telemetry.TraceCtx{TraceID: 1<<32 | 7, Hop: 2, Origin: 1, OriginEpoch: 5}
	b := appendTraceExt(nil, ctx)
	got, ok, err := parseTraceExt(b)
	if err != nil || !ok {
		t.Fatalf("parseTraceExt = %v, %v", ok, err)
	}
	if got != ctx {
		t.Fatalf("round trip = %+v, want %+v", got, ctx)
	}
}

func TestTraceExtAbsentTolerated(t *testing.T) {
	// Old peers send no extension at all: not an error, just no context.
	if _, ok, err := parseTraceExt(nil); ok || err != nil {
		t.Fatalf("absent ext = %v, %v; want false, nil", ok, err)
	}
}

func TestTraceExtZeroIDMeansUnset(t *testing.T) {
	b := appendTraceExt(nil, telemetry.TraceCtx{})
	if _, ok, err := parseTraceExt(b); ok || err != nil {
		t.Fatalf("zero-id ext = %v, %v; want false, nil", ok, err)
	}
}

func TestTraceExtFutureVersionFailsClosed(t *testing.T) {
	// A future build's extension must be refused with ErrTraceVersion —
	// distinguishable from hostile bytes so only the open dies, not the
	// connection.
	b := appendTraceExt(nil, telemetry.TraceCtx{TraceID: 9, Origin: 1})
	b[1] = TraceExtVersion + 1
	if _, _, err := parseTraceExt(b); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("future version error = %v, want ErrTraceVersion", err)
	}
	if _, _, err := parseTraceExt(b); errors.Is(err, ErrMalformed) {
		t.Fatal("future version misclassified as malformed")
	}
}

func TestTraceExtMalformed(t *testing.T) {
	good := appendTraceExt(nil, telemetry.TraceCtx{TraceID: 9, Origin: 1})
	cases := map[string][]byte{
		"unknown magic":   {0xFF, TraceExtVersion, 0, 0},
		"truncated magic": {traceExtMagic},
		"short body":      good[:10],
		"trailing bytes":  append(append([]byte(nil), good...), 0x00),
	}
	for name, b := range cases {
		if _, _, err := parseTraceExt(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}
