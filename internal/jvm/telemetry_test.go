package jvm

import (
	"testing"

	"laminar/internal/telemetry"
)

// TestPublishTelemetry: the snapshot-time fold exposes compile and run
// counters in the recorder's free-form series — and is a strict no-op
// when telemetry is off or absent, so it can never perturb a run.
func TestPublishTelemetry(t *testing.T) {
	code := NewAsm().
		Load(0).Load(1).Op(OpAdd).
		Op(OpReturnVal).MustBuild()
	p := NewProgram(0)
	p.Add(method("f", 2, 2, nil, code))
	mc, err := NewMachine(p, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Call(hostThread(t, mc), "f", IntV(2), IntV(3)); err != nil {
		t.Fatal(err)
	}

	// Off (the default level) and nil both publish nothing.
	mc.PublishTelemetry(nil)
	off := telemetry.NewRecorder()
	mc.PublishTelemetry(off)
	if n := off.MetricsSnapshot().Extra["jvm.methods.compiled"]; n != 0 {
		t.Fatalf("LevelOff recorder got %d compiled methods, want 0", n)
	}

	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelDeny)
	mc.PublishTelemetry(rec)
	extra := rec.MetricsSnapshot().Extra
	if extra["jvm.methods.compiled"] == 0 {
		t.Error("compiled-method count not published")
	}
	// f touches no objects or regions, so its zero-valued series
	// (barriers, violations) must be omitted rather than published as 0.
	for _, name := range []string{"jvm.barriers.emitted", "jvm.violations"} {
		if _, ok := extra[name]; ok {
			t.Errorf("zero-valued series %s was published", name)
		}
	}
}
