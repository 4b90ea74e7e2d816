package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinyOps keeps the self-tests quick: a few hundred requests a run.
const tinyOps = 400

var workloadNames = []string{"gradesheet", "file-churn", "net-relay"}

func tiny(name string, trace bool) config {
	return config{workload: name, seed: 3, trace: trace, ops: tinyOps, warmup: 20, setups: 1, corruptAt: -1}
}

// declared returns the units of the metrics BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyScale runs every workload briefly, untraced and traced, and
// requires exactly the declared metrics, each finite and in its unit, on
// a run where nothing fails.
func TestTinyScale(t *testing.T) {
	if !json.Valid(provenance) {
		t.Fatal("provenance.json is not valid JSON")
	}
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o, err := run(tiny(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted != tinyOps {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					name, trace, o.res.Correct, o.res.Failed, o.res.Attempted, o.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(o.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(o.res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := o.res.Metrics[m]
				if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v (present %v), want a finite value in %s", name, trace, m, got, ok, unit)
				}
			}
			if trace && o.res.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("%s: fail_ratio = %v", name, o.res.Metrics["fail_ratio"].Value)
			}
		}
	}
}

// TestCheckerCatchesWrongModel makes each workload's model wrong midway
// and requires failures, so that a clean fail_ratio cannot come from a
// checker that passes everything.
func TestCheckerCatchesWrongModel(t *testing.T) {
	for _, name := range workloadNames {
		cfg := tiny(name, true)
		cfg.corruptAt = tinyOps / 4
		o, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.res.Correct || o.res.Failed == 0 || o.res.Metrics["fail_ratio"].Value == 0 {
			t.Errorf("%s: a wrong model went unnoticed: correct=%v failed=%d", name, o.res.Correct, o.res.Failed)
		}
	}
}

// TestSameSeedSameCounts: two runs with one seed issue the same requests
// and report exactly the same counts, the figures later changes may cite
// as counts.
func TestSameSeedSameCounts(t *testing.T) {
	counts := []string{"rt.regions_per_op", "rt.barriers_per_op",
		"lsm.hooks_per_op", "budget.units_per_op"}
	for _, k := range kernelCalls {
		counts = append(counts, spanNames[k]+".calls_per_op")
	}
	// The count each workload exists for, which must not be zero.
	busy := map[string]string{
		"gradesheet": "rt.regions_per_op",
		"file-churn": "kernel.create.calls_per_op",
	}
	for name, busyMetric := range busy {
		a, err := run(tiny(name, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(tiny(name, true))
		if err != nil {
			t.Fatal(err)
		}
		if a.trail != b.trail {
			t.Errorf("%s: request digests %x and %x differ", name, a.trail, b.trail)
		}
		if a.res.Metrics[busyMetric].Value == 0 {
			t.Errorf("%s: %s is 0", name, busyMetric)
		}
		for _, m := range counts {
			if a.res.Metrics[m] != b.res.Metrics[m] {
				t.Errorf("%s: %s = %v, then %v", name, m, a.res.Metrics[m].Value, b.res.Metrics[m].Value)
			}
		}
	}
}
