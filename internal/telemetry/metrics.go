package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"laminar/internal/difc"
)

// Metrics primitives. Counters are striped across cache-line-padded
// atomic cells indexed by the caller's TID so concurrent tasks on
// different cores do not bounce one hot line; histograms bucket latencies
// at log2 resolution so recording is a single shift plus one atomic add.

const counterStripes = 8

type counterCell struct {
	n atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a sharded monotonic counter. Inc/Add take a stripe key
// (conventionally the acting TID); Load folds the stripes.
type Counter struct {
	cells [counterStripes]counterCell
}

// Inc adds one on the stripe for key.
func (c *Counter) Inc(key uint64) { c.cells[key%counterStripes].n.Add(1) }

// Add adds n on the stripe for key.
func (c *Counter) Add(key, n uint64) { c.cells[key%counterStripes].n.Add(n) }

// Load returns the folded total.
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// Histogram is a log2-bucketed latency histogram over nanoseconds:
// bucket i counts observations with ceil(log2(ns)) == i, so the full
// sub-nanosecond-to-18-minutes range fits in 40 cells and recording is
// branch-free. Good enough to spot an order-of-magnitude regression,
// cheap enough for a per-hook hot path.
type Histogram struct {
	buckets [40]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	i := bits.Len64(ns) // 0 for 0ns, else position of highest set bit
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistBucket is one non-empty histogram cell in a snapshot: all
// observations ≤ UpperNS (and above the previous bucket's bound).
type HistBucket struct {
	UpperNS uint64 `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// snapshot returns the non-empty buckets in ascending bound order.
func (h *Histogram) snapshot() []HistBucket {
	var out []HistBucket
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, HistBucket{UpperNS: (uint64(1) << i) - 1, Count: n})
		}
	}
	return out
}

// CounterVec is a set of named counters created on first use — per-hook
// call counts, rt barrier totals, and other dynamically named series.
// The hot path is one lock-free sync.Map load plus a striped add.
type CounterVec struct {
	m sync.Map // string -> *Counter
}

// Get returns the counter for name, creating it on first use.
func (v *CounterVec) Get(name string) *Counter {
	if c, ok := v.m.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := v.m.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Inc bumps the named counter on the stripe for key.
func (v *CounterVec) Inc(name string, key uint64) { v.Get(name).Inc(key) }

// snapshot folds every named counter.
func (v *CounterVec) snapshot() map[string]uint64 {
	out := map[string]uint64{}
	v.m.Range(func(k, c any) bool {
		out[k.(string)] = c.(*Counter).Load()
		return true
	})
	return out
}

// Metrics is a recorder's counter block. Unlike events it is always
// live once the recorder is Active — LevelDeny keeps full metrics while
// recording only denial events.
type Metrics struct {
	events        Counter
	Denials       Counter
	Allows        Counter
	denialsByRule [RuleFault + 1]Counter

	FaultTrips     Counter // fault-injection firings observed
	LockContention Counter // kernel lock-shard acquisitions that had to wait

	Hooks       CounterVec // per LSM-hook call counts, keyed by site
	Extra       CounterVec // free-form series: rt barriers, jvm checks, ...
	HookLatency Histogram  // latency across all LSM hook invocations

	// LayerLatency attributes enforcement latency to the layered
	// monitors: one histogram per Layer (hook dispatch for LSM, frame
	// apply for Net, control handling for Cluster, ...), the raw data
	// behind cluster-wide per-layer p99 SLOs.
	LayerLatency [LayerBudget + 1]Histogram
}

// ObserveLayer records one duration against a layer's latency histogram.
func (m *Metrics) ObserveLayer(l Layer, d time.Duration) {
	if int(l) < len(m.LayerLatency) {
		m.LayerLatency[l].Observe(d)
	}
}

// Reset zeroes the whole block. For tests and bench warmup; not safe
// against concurrent writers.
func (m *Metrics) Reset() { *m = Metrics{} }

// MetricsSnapshot is a point-in-time fold of a recorder's metrics plus
// the process-global difc intern-table stats, in a shape that serialises
// directly to JSON, expvar and Prometheus text.
type MetricsSnapshot struct {
	Level  string `json:"level"`
	Events uint64 `json:"events"`

	Denials       uint64            `json:"denials"`
	Allows        uint64            `json:"allows"`
	DenialsByRule map[string]uint64 `json:"denials_by_rule,omitempty"`

	FaultTrips     uint64 `json:"fault_trips"`
	LockContention uint64 `json:"lock_contention"`

	Hooks map[string]uint64 `json:"hooks,omitempty"`
	Extra map[string]uint64 `json:"extra,omitempty"`

	HookLatency  []HistBucket            `json:"hook_latency,omitempty"`
	LayerLatency map[string][]HistBucket `json:"layer_latency,omitempty"`

	InternHits   uint64 `json:"intern_hits"`
	InternMisses uint64 `json:"intern_misses"`
}

// MetricsSnapshot folds the recorder's counters.
func (r *Recorder) MetricsSnapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Level:          r.Level().String(),
		Events:         r.M.events.Load(),
		Denials:        r.M.Denials.Load(),
		Allows:         r.M.Allows.Load(),
		FaultTrips:     r.M.FaultTrips.Load(),
		LockContention: r.M.LockContention.Load(),
		Hooks:          r.M.Hooks.snapshot(),
		Extra:          r.M.Extra.snapshot(),
		HookLatency:    r.M.HookLatency.snapshot(),
		DenialsByRule:  map[string]uint64{},
	}
	for rule := range r.M.denialsByRule {
		if n := r.M.denialsByRule[rule].Load(); n > 0 {
			s.DenialsByRule[Rule(rule).String()] = n
		}
	}
	for l := range r.M.LayerLatency {
		if r.M.LayerLatency[l].Count() == 0 {
			continue
		}
		if s.LayerLatency == nil {
			s.LayerLatency = map[string][]HistBucket{}
		}
		s.LayerLatency[Layer(l).String()] = r.M.LayerLatency[l].snapshot()
	}
	s.InternHits, s.InternMisses = difc.InternStats()
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters only; the histogram as cumulative buckets).
func (s MetricsSnapshot) WritePrometheus(w io.Writer) error {
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return
	}
	if err := p("# TYPE laminar_events_total counter\nlaminar_events_total %d\n", s.Events); err != nil {
		return err
	}
	p("# TYPE laminar_denials_total counter\nlaminar_denials_total %d\n", s.Denials)
	p("# TYPE laminar_allows_total counter\nlaminar_allows_total %d\n", s.Allows)
	for _, rule := range sortedKeys(s.DenialsByRule) {
		p("laminar_denials_by_rule_total{rule=%q} %d\n", rule, s.DenialsByRule[rule])
	}
	p("# TYPE laminar_fault_trips_total counter\nlaminar_fault_trips_total %d\n", s.FaultTrips)
	p("# TYPE laminar_lock_contention_total counter\nlaminar_lock_contention_total %d\n", s.LockContention)
	p("# TYPE laminar_hook_calls_total counter\n")
	for _, hook := range sortedKeys(s.Hooks) {
		p("laminar_hook_calls_total{hook=%q} %d\n", hook, s.Hooks[hook])
	}
	for _, name := range sortedKeys(s.Extra) {
		p("laminar_%s_total %d\n", promName(name), s.Extra[name])
	}
	p("# TYPE laminar_hook_latency_ns histogram\n")
	var cum uint64
	for _, b := range s.HookLatency {
		cum += b.Count
		p("laminar_hook_latency_ns_bucket{le=\"%d\"} %d\n", b.UpperNS, cum)
	}
	p("laminar_hook_latency_ns_count %d\n", cum)
	p("# TYPE laminar_layer_latency_ns histogram\n")
	for _, layer := range sortedKeys2(s.LayerLatency) {
		var lcum uint64
		for _, b := range s.LayerLatency[layer] {
			lcum += b.Count
			p("laminar_layer_latency_ns_bucket{layer=%q,le=\"%d\"} %d\n", layer, b.UpperNS, lcum)
		}
		p("laminar_layer_latency_ns_count{layer=%q} %d\n", layer, lcum)
	}
	p("laminar_intern_hits_total %d\n", s.InternHits)
	return p("laminar_intern_misses_total %d\n", s.InternMisses)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeys2(m map[string][]HistBucket) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps free-form series names ("rt.barrier.read") to the
// Prometheus identifier charset.
func promName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// expvar export: the Default recorder's snapshot is published once under
// "laminar.telemetry" so any process importing this package exposes its
// DIFC metrics on the standard /debug/vars endpoint for free.
func init() {
	expvar.Publish("laminar.telemetry", expvar.Func(func() any {
		return Default.MetricsSnapshot()
	}))
}
