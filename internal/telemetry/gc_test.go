package telemetry

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"laminar/internal/difc"
)

// TestDenialsSurviveGC records denials whose labels nothing else holds,
// runs the collector twice, and then dumps and replays the ring: events
// keep their label operands alive, so every recorded label still reads
// back, rebuilding it from its tags yields the node the event holds, and
// each replayed check MATCHES the record.
func TestDenialsSurviveGC(t *testing.T) {
	const base = difc.Tag(1 << 55)
	r := NewRecorder()
	r.SetLevel(LevelDeny)
	func() {
		for i := difc.Tag(0); i < 64; i += 4 {
			src := difc.Labels{S: difc.NewLabel(base+i, base+i+1), I: difc.NewLabel(base + i + 2)}
			dst := difc.Labels{S: difc.NewLabel(base + i)}
			r.EmitDeny(LayerLSM, "hook.FilePermission", "read", 1, 1, difc.CheckFlow("read", src, dst))
			caps := difc.NewCapSet(difc.NewLabel(base+i+3), difc.EmptyLabel)
			r.EmitDeny(LayerLSM, "hook.TaskSetLabel", "set_task_label", 1, 1,
				difc.CheckChange("set_task_label", difc.EmptyLabel, difc.NewLabel(base+i+1, base+i+3), caps))
		}
	}()
	runtime.GC()
	runtime.GC()

	live := r.Denials()
	if len(live) != 32 {
		t.Fatalf("recorded %d denials, want 32", len(live))
	}
	for _, e := range live {
		src, ok := e.srcLabels()
		if e.Rule == RuleSecrecy && (!ok || src.S.Len() != 2 || difc.NewLabel(src.S.Tags()...) != src.S) {
			t.Fatalf("event #%d: source %v (ok %v) did not survive the collector", e.Seq, src, ok)
		}
		if e.Rule == RuleLabelChange && (e.DstS.Len() != 2 || difc.NewLabel(e.DstS.Tags()...) != e.DstS) {
			t.Fatalf("event #%d: requested label %v did not survive the collector", e.Seq, e.DstS)
		}
	}
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(live) {
		t.Fatalf("dump holds %d events, ring %d", len(back), len(live))
	}
	for _, e := range back {
		if res := Replay(e); !res.Replayable || !res.Matches {
			t.Fatalf("event #%d does not replay: %+v", e.Seq, res)
		}
		if out := Explain(e); !strings.Contains(out, "MATCHES") {
			t.Fatalf("event #%d explanation does not match:\n%s", e.Seq, out)
		}
	}
}
