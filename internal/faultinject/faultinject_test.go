package faultinject

import "testing"

// TestDeterministicSchedule verifies the core reproducibility contract:
// the same seed and site sequence produce an identical schedule.
func TestDeterministicSchedule(t *testing.T) {
	sites := []string{"fs.open", "fs.write", "pipe.write", "persist.commit", "fs.read"}
	run := func() string {
		p := NewPlan(42)
		p.Record()
		p.SetDefaultRates(Rates{Error: 0.2, Crash: 0.1, Delay: 0.1})
		for i := 0; i < 200; i++ {
			p.At(sites[i%len(sites)])
		}
		return p.Schedule()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("schedules differ:\n%s\n---\n%s", a, b)
	}
	if a == "seed=42\n" {
		t.Fatal("no faults drawn at 40% total rate over 200 steps")
	}
}

// TestSeedsDiffer: distinct seeds give distinct schedules (overwhelmingly).
func TestSeedsDiffer(t *testing.T) {
	run := func(seed int64) string {
		p := NewPlan(seed)
		p.Record()
		p.SetDefaultRates(Rates{Error: 0.3})
		for i := 0; i < 100; i++ {
			p.At("s")
		}
		return p.Schedule()
	}
	if run(1) == run(2) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestPrefixRates: the longest matching prefix wins; unmatched sites use
// the defaults.
func TestPrefixRates(t *testing.T) {
	p := NewPlan(7)
	p.SetDefaultRates(Rates{})              // nothing by default
	p.SetRates("persist.", Rates{Error: 1}) // always fault persistence
	p.SetRates("persist.clear", Rates{})    // except the clear step
	for i := 0; i < 20; i++ {
		if got := p.At("fs.open"); got != None {
			t.Fatalf("fs.open fault = %v, want none", got)
		}
		if got := p.At("persist.commit"); got != Error {
			t.Fatalf("persist.commit fault = %v, want error", got)
		}
		if got := p.At("persist.clear"); got != None {
			t.Fatalf("persist.clear fault = %v, want none", got)
		}
	}
}

// TestZeroRatesDrawNothing: a plan with zero rates never faults, and the
// rate classes are respected in aggregate.
func TestRateClasses(t *testing.T) {
	p := NewPlan(99)
	p.SetDefaultRates(Rates{Error: 0.5, Crash: 0.5})
	var errs, crashes, nones int
	for i := 0; i < 1000; i++ {
		switch p.At("x") {
		case Error:
			errs++
		case Crash:
			crashes++
		case None:
			nones++
		}
	}
	if nones != 0 {
		t.Errorf("rates sum to 1 but %d draws were none", nones)
	}
	if errs == 0 || crashes == 0 {
		t.Errorf("class starvation: errs=%d crashes=%d", errs, crashes)
	}
}
