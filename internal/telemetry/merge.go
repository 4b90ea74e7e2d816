package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// Cluster metrics aggregation (DESIGN.md §16). Every node exports its
// MetricsSnapshot over the cluster control plane; any node can merge the
// set it has heard into one cluster-wide view. The merge is a simple
// commutative fold — counters sum, histograms add bucket-wise — so the
// result is independent of arrival order, and staleness is explicit:
// a snapshot from a suspect/dead peer or from a superseded incarnation
// epoch is still merged (its counts happened) but marked, so SLO
// dashboards know which slice of the data stopped moving.

// NodeSnapshot is one node's contribution to a cluster merge.
type NodeSnapshot struct {
	Node     uint64          `json:"node"`
	Epoch    uint64          `json:"epoch"`
	Tick     uint64          `json:"tick,omitempty"`      // receiver's tick when heard
	Stale    bool            `json:"stale,omitempty"`     // suspect/dead peer or old epoch
	StaleWhy string          `json:"stale_why,omitempty"` // "suspect", "dead", "epoch 3 < 4"
	Snapshot MetricsSnapshot `json:"snapshot"`
}

// ClusterSnapshot is the merged cluster-wide view plus the per-node
// slices it was folded from.
type ClusterSnapshot struct {
	Nodes      []NodeSnapshot  `json:"nodes"`
	StaleNodes int             `json:"stale_nodes"`
	Merged     MetricsSnapshot `json:"merged"`
}

// MergeSnapshots folds per-node snapshots into a cluster view. Nodes are
// sorted by id; the merged block sums every counter and adds histograms
// bucket-wise.
func MergeSnapshots(nodes []NodeSnapshot) ClusterSnapshot {
	sorted := make([]NodeSnapshot, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	cs := ClusterSnapshot{Nodes: sorted}
	cs.Merged.Level = "merged"
	for _, n := range sorted {
		if n.Stale {
			cs.StaleNodes++
		}
		mergeInto(&cs.Merged, n.Snapshot)
	}
	return cs
}

// satAddU64 is saturating addition. Merged cluster counters and bucket
// sums clamp at MaxUint64 instead of wrapping: a wrapped sum reads as a
// tiny count, which silently un-exhausts a merged budget fact and
// corrupts merged p99s (ISSUE 10).
func satAddU64(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// mergeInto adds one snapshot's counts into the accumulator.
func mergeInto(dst *MetricsSnapshot, s MetricsSnapshot) {
	dst.Events = satAddU64(dst.Events, s.Events)
	dst.Denials = satAddU64(dst.Denials, s.Denials)
	dst.Allows = satAddU64(dst.Allows, s.Allows)
	dst.FaultTrips = satAddU64(dst.FaultTrips, s.FaultTrips)
	dst.LockContention = satAddU64(dst.LockContention, s.LockContention)
	dst.InternHits = satAddU64(dst.InternHits, s.InternHits)
	dst.InternMisses = satAddU64(dst.InternMisses, s.InternMisses)
	dst.DenialsByRule = mergeMap(dst.DenialsByRule, s.DenialsByRule)
	dst.Hooks = mergeMap(dst.Hooks, s.Hooks)
	dst.Extra = mergeMap(dst.Extra, s.Extra)
	dst.HookLatency = MergeHistograms(dst.HookLatency, s.HookLatency)
	for layer, buckets := range s.LayerLatency {
		if dst.LayerLatency == nil {
			dst.LayerLatency = map[string][]HistBucket{}
		}
		dst.LayerLatency[layer] = MergeHistograms(dst.LayerLatency[layer], buckets)
	}
}

func mergeMap(dst, src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = map[string]uint64{}
	}
	for k, v := range src {
		dst[k] = satAddU64(dst[k], v)
	}
	return dst
}

// MergeHistograms adds two bucket lists bucket-wise, keyed on the upper
// bound. Both inputs are ascending (snapshot order); the result is too.
func MergeHistograms(a, b []HistBucket) []HistBucket {
	if len(a) == 0 {
		return append([]HistBucket(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	var out []HistBucket
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].UpperNS == b[j].UpperNS:
			out = append(out, HistBucket{UpperNS: a[i].UpperNS, Count: satAddU64(a[i].Count, b[j].Count)})
			i++
			j++
		case a[i].UpperNS < b[j].UpperNS:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// HistQuantile estimates the q-quantile (0 < q ≤ 1) of a bucket list as
// the upper bound of the bucket the quantile falls in. Log2 buckets make
// this an order-of-magnitude estimate, which is what the SLO gates need.
//
// Edge cases are pinned by telemetry/merge_test.go: an empty or
// all-zero-count list returns ok=false; q ≥ 1 returns the upper bound of
// the LAST NON-EMPTY bucket (never an empty trailing bucket, never an
// out-of-range index); the running totals saturate so a merged list
// whose counts sum past MaxUint64 still picks a real bucket.
func HistQuantile(buckets []HistBucket, q float64) (uint64, bool) {
	var total uint64
	lastNonEmpty := -1
	for i, b := range buckets {
		total = satAddU64(total, b.Count)
		if b.Count > 0 {
			lastNonEmpty = i
		}
	}
	if total == 0 {
		return 0, false
	}
	if q >= 1 {
		return buckets[lastNonEmpty].UpperNS, true
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var cum uint64
	for _, b := range buckets {
		cum = satAddU64(cum, b.Count)
		if cum > want {
			return b.UpperNS, true
		}
	}
	return buckets[lastNonEmpty].UpperNS, true
}

// WritePrometheus renders the cluster view: per-node liveness/staleness
// gauges followed by the merged counters.
func (cs ClusterSnapshot) WritePrometheus(w io.Writer) error {
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return
	}
	if err := p("# TYPE laminar_cluster_nodes gauge\nlaminar_cluster_nodes %d\n", len(cs.Nodes)); err != nil {
		return err
	}
	p("# TYPE laminar_cluster_stale_nodes gauge\nlaminar_cluster_stale_nodes %d\n", cs.StaleNodes)
	p("# TYPE laminar_cluster_node_stale gauge\n")
	for _, n := range cs.Nodes {
		stale := 0
		if n.Stale {
			stale = 1
		}
		p("laminar_cluster_node_stale{node=\"%d\",epoch=\"%d\"} %d\n", n.Node, n.Epoch, stale)
	}
	return cs.Merged.WritePrometheus(w)
}
