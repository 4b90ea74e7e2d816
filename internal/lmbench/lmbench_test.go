package lmbench

import (
	"strings"
	"testing"
)

func TestSuiteRuns(t *testing.T) {
	results, err := Run(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d rows, want 8", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Name] = true
		if r.BaseNanos <= 0 || r.LaminarNanos <= 0 {
			t.Errorf("%s: non-positive latency %v/%v", r.Name, r.BaseNanos, r.LaminarNanos)
		}
		if !strings.Contains(r.String(), r.Name) {
			t.Errorf("row format: %q", r.String())
		}
	}
	for _, want := range []string{"stat", "fork", "exec", "0k file create", "0k file delete", "mmap latency", "prot fault", "null I/O"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
}

func TestLaminarAddsHookWork(t *testing.T) {
	// The LSM configuration must actually exercise hooks for every
	// benchmark in the suite (otherwise the Table 2 comparison is vacuous).
	for _, b := range Suite() {
		k, task, err := newKernel(true)
		if err != nil {
			t.Fatal(err)
		}
		body, err := b.Setup(k, task)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		before := k.HookCalls()
		for i := 0; i < 4; i++ {
			if err := body(); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		}
		if k.HookCalls() == before {
			t.Errorf("%s: no security hooks fired", b.Name)
		}
	}
}

func TestOverheadPct(t *testing.T) {
	r := Result{Name: "x", BaseNanos: 100, LaminarNanos: 131}
	if got := r.overheadPct(); got < 30.9 || got > 31.1 {
		t.Errorf("overheadPct = %v", got)
	}
	if (Result{}).overheadPct() != 0 {
		t.Error("zero base should report 0 overhead")
	}
}
