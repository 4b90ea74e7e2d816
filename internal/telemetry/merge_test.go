package telemetry

import (
	"math"
	"testing"
)

// TestHistQuantileEdgeCases pins the ISSUE 10 quantile contract: q=1.0
// returns the last NON-EMPTY bucket's bound, all-zero lists return
// ok=false, and single-bucket lists behave.
func TestHistQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		buckets []HistBucket
		q       float64
		want    uint64
		ok      bool
	}{
		{name: "nil list", buckets: nil, q: 0.5, want: 0, ok: false},
		{name: "empty list", buckets: []HistBucket{}, q: 0.99, want: 0, ok: false},
		{
			name:    "all zero counts",
			buckets: []HistBucket{{UpperNS: 63, Count: 0}, {UpperNS: 127, Count: 0}},
			q:       0.5, want: 0, ok: false,
		},
		{
			name:    "single bucket median",
			buckets: []HistBucket{{UpperNS: 255, Count: 10}},
			q:       0.5, want: 255, ok: true,
		},
		{
			name:    "single bucket q=1",
			buckets: []HistBucket{{UpperNS: 255, Count: 1}},
			q:       1.0, want: 255, ok: true,
		},
		{
			name: "q=1 returns last non-empty bound",
			buckets: []HistBucket{
				{UpperNS: 63, Count: 5},
				{UpperNS: 127, Count: 3},
				{UpperNS: 255, Count: 0}, // trailing empty bucket must not win
			},
			q: 1.0, want: 127, ok: true,
		},
		{
			name: "q>1 clamps like q=1",
			buckets: []HistBucket{
				{UpperNS: 63, Count: 5},
				{UpperNS: 127, Count: 3},
			},
			q: 1.5, want: 127, ok: true,
		},
		{
			name: "median across buckets",
			buckets: []HistBucket{
				{UpperNS: 63, Count: 5},
				{UpperNS: 127, Count: 5},
			},
			q: 0.5, want: 127, ok: true,
		},
		{
			name: "p99 lands in tail bucket",
			buckets: []HistBucket{
				{UpperNS: 63, Count: 990},
				{UpperNS: 127, Count: 9},
				{UpperNS: 255, Count: 1},
			},
			q: 0.99, want: 127, ok: true,
		},
		{
			name: "leading empty bucket skipped",
			buckets: []HistBucket{
				{UpperNS: 31, Count: 0},
				{UpperNS: 63, Count: 4},
			},
			q: 0.5, want: 63, ok: true,
		},
		{
			name: "saturated counts still resolve",
			buckets: []HistBucket{
				{UpperNS: 63, Count: math.MaxUint64 - 1},
				{UpperNS: 127, Count: math.MaxUint64 - 1},
			},
			q: 0.25, want: 63, ok: true,
		},
		{
			name: "saturated counts q=1",
			buckets: []HistBucket{
				{UpperNS: 63, Count: math.MaxUint64 - 1},
				{UpperNS: 127, Count: math.MaxUint64 - 1},
			},
			q: 1.0, want: 127, ok: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := HistQuantile(c.buckets, c.q)
			if got != c.want || ok != c.ok {
				t.Fatalf("HistQuantile(%v, %v) = (%d, %v), want (%d, %v)",
					c.buckets, c.q, got, ok, c.want, c.ok)
			}
		})
	}
}

// TestMergeHistogramsSaturates is the ISSUE 10 overflow regression at
// MaxUint64-1: the bucket-wise sum must clamp, not wrap to a tiny count
// that corrupts merged quantiles.
func TestMergeHistogramsSaturates(t *testing.T) {
	a := []HistBucket{{UpperNS: 63, Count: math.MaxUint64 - 1}}
	b := []HistBucket{{UpperNS: 63, Count: 2}}
	m := mergeHistograms(a, b)
	if len(m) != 1 {
		t.Fatalf("merged %d buckets, want 1", len(m))
	}
	if m[0].Count != math.MaxUint64 {
		t.Fatalf("bucket sum = %d, want saturated MaxUint64 (wrapped?)", m[0].Count)
	}
	// The merged histogram must still answer quantiles sanely.
	if got, ok := HistQuantile(m, 0.99); !ok || got != 63 {
		t.Fatalf("quantile on saturated merge = (%d, %v)", got, ok)
	}
}

// TestMergeHistogramsDisjointBounds: bucket-wise merge keyed on the
// upper bound interleaves distinct bounds in order.
func TestMergeHistogramsDisjointBounds(t *testing.T) {
	a := []HistBucket{{UpperNS: 63, Count: 1}, {UpperNS: 255, Count: 2}}
	b := []HistBucket{{UpperNS: 127, Count: 3}}
	m := mergeHistograms(a, b)
	want := []HistBucket{{UpperNS: 63, Count: 1}, {UpperNS: 127, Count: 3}, {UpperNS: 255, Count: 2}}
	if len(m) != len(want) {
		t.Fatalf("merged %v, want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merged %v, want %v", m, want)
		}
	}
}

// TestMergeSnapshotsSaturates: scalar counters and maps in the cluster
// fold clamp rather than wrap.
func TestMergeSnapshotsSaturates(t *testing.T) {
	nodes := []NodeSnapshot{
		{Node: 1, Snapshot: MetricsSnapshot{
			Denials: math.MaxUint64 - 1,
			Extra:   map[string]uint64{"budget.charged": math.MaxUint64 - 1},
		}},
		{Node: 2, Snapshot: MetricsSnapshot{
			Denials: 5,
			Extra:   map[string]uint64{"budget.charged": 7},
		}},
	}
	cs := MergeSnapshots(nodes)
	if cs.Merged.Denials != math.MaxUint64 {
		t.Fatalf("merged denials = %d, want saturated", cs.Merged.Denials)
	}
	if cs.Merged.Extra["budget.charged"] != math.MaxUint64 {
		t.Fatalf("merged extra = %d, want saturated", cs.Merged.Extra["budget.charged"])
	}
}
