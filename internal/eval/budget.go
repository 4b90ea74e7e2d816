package eval

// Flow-budget overhead + contention benchmark (ISSUE 10, DESIGN.md §17).
//
// Three sections:
//
//   - The GATED hot-path comparison: an in-process declassify-request
//     storm. Each cycle is a calibrated slice of application work (the
//     request that produced the labeled data — simwork, the same
//     methodology the §12 case studies use to isolate DIFC machinery
//     from app work), a taint, and an untaint through the full kernel
//     SetTaskLabel path; bare (no ledger) vs budgeted (a ledger with a
//     generous, never-exhausted limit on the dropped tag, so every
//     untaint really charges). The unexhausted charge is lock-free —
//     one table load, a map hit and a compare-and-swap, ~40ns and zero
//     allocations in isolation — so the request loop holds a tight
//     gate: ≤ 1.05x over bare. Measurement is paired: batches
//     alternate between the two prebuilt kernels so both sides of a
//     round share the host's clock state, and the overhead is the
//     median of per-round ratios — robust against the ±5-10% drift
//     that makes wall-clock totals on a shared host useless at this
//     resolution. The absolute per-charge cost is reported too, so the
//     ratio can't hide behind the app-work denominator.
//
//   - The INFORMATIONAL netd rows: the §12 message storm over a
//     labeled TCP channel bare vs budgeted, where every drain charges
//     against the receiving peer. The rows are informational: their
//     run-to-run spread on loopback TCP is larger than the charge they
//     measure (two consecutive runs of one binary on 2 vCPUs read 1.105x
//     and 1.801x), so they show the shape without gating on it.
//
//   - The INFORMATIONAL tenant-contention table: a zipfian request mix
//     over N tenant tags drawn with a fixed seed, each tenant holding
//     the same limit. The skew concentrates spend on the head tenants,
//     which exhaust and start denying while the tail never notices —
//     the quantitative-budget behavior the ledger exists to produce.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"laminar/internal/budget"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/netlabel"
	"laminar/internal/simwork"
)

// budgetGate is the unexhausted hot-path ceiling: budgeted vs bare on
// the relabel storm.
const budgetGate = 1.05

// BudgetRow is one configuration's measurement.
type BudgetRow struct {
	Mode      string  `json:"mode"` // bare | budgeted
	Ops       int     `json:"ops"`
	WallNs    int64   `json:"wall_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// BudgetTenantRow is one tenant's slice of the contention table.
type BudgetTenantRow struct {
	Tenant   int    `json:"tenant"`
	Requests int    `json:"requests"`
	Charged  int    `json:"charged"`
	Denied   int    `json:"denied"`
	Spent    uint64 `json:"spent"`
	Limit    uint64 `json:"limit"`
}

// BudgetReport is the laminar-bench -budget result (BENCH_budget.json).
type BudgetReport struct {
	Cycles  int `json:"relabel_cycles"`
	Msgs    int `json:"netd_messages"`
	Payload int `json:"payload_bytes"`
	Trials  int `json:"trials"`

	RelabelRows []BudgetRow `json:"relabel_rows"`
	NetdRows    []BudgetRow `json:"netd_rows"`

	Overhead     float64 `json:"overhead"`       // gated: request-loop bare rate / budgeted rate
	ChargeNs     float64 `json:"charge_ns"`      // informational: absolute per-cycle cost delta
	AppWork      int     `json:"app_work_units"` // simwork units per request cycle
	NetdOverhead float64 `json:"netd_overhead"`  // informational: same ratio on the TCP path
	GateMax      float64 `json:"gate"`
	Pass         bool    `json:"pass"`

	Tenants    int               `json:"tenants"`
	ZipfS      float64           `json:"zipf_s"`
	TenantReqs int               `json:"tenant_requests"`
	Contention []BudgetTenantRow `json:"contention"`
}

// budgetAppWork is the calibrated app-work slice (~2µs) each
// declassify-request cycle performs before its taint/untaint pair. A
// declassification never happens in a vacuum — some request produced
// the data being released — and simwork is how this repo models that
// surrounding work (see internal/simwork).
const budgetAppWork = 2000

// relabelBatch is the paired-measurement granularity: batches short
// enough (~300µs) that many land between scheduler interruptions, long
// enough that timer overhead vanishes.
const relabelBatch = 100

// relabelRig is one prebuilt kernel for the declassify-request storm.
type relabelRig struct {
	k    *kernel.Kernel
	task *kernel.Task
	lab  difc.Label
}

// newRelabelRig boots a kernel+LSM stack; with budgeted set it carries
// a ledger holding an inexhaustible limit on the test tag, so every
// untaint pays one real charge.
func newRelabelRig(budgeted bool) (*relabelRig, error) {
	mod := lsm.New()
	opts := []kernel.Option{kernel.WithSecurityModule(mod), kernel.WithoutTelemetry()}
	var led *budget.Ledger
	if budgeted {
		led = budget.New()
		opts = append(opts, kernel.WithBudget(led))
	}
	k := kernel.New(opts...)
	mod.InstallSystemIntegrity(k)
	task, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, err
	}
	tag, err := k.AllocTag(task)
	if err != nil {
		return nil, err
	}
	if led != nil {
		if err := led.SetLimit(tag, 0, 1<<62); err != nil {
			return nil, err
		}
	}
	return &relabelRig{k: k, task: task, lab: difc.NewLabel(tag)}, nil
}

// batch times n declassify requests: app work, taint, untaint.
func (r *relabelRig) batch(n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		simwork.Do(budgetAppWork)
		if err := r.k.SetTaskLabel(r.task, kernel.Secrecy, r.lab); err != nil {
			return 0, fmt.Errorf("budget bench taint: %w", err)
		}
		if err := r.k.SetTaskLabel(r.task, kernel.Secrecy, difc.EmptyLabel); err != nil {
			return 0, fmt.Errorf("budget bench untaint: %w", err)
		}
	}
	return time.Since(start), nil
}

// runBudgetRelabel runs the paired storm for cycles requests per mode
// and returns per-mode total wall time, the median per-round
// budgeted/bare ratio, and the median per-cycle cost delta. Batches
// alternate bare/budgeted (order flipping each round) so each ratio is
// taken between batches that shared the host's clock state.
func runBudgetRelabel(cycles int) (wall map[string]time.Duration, overhead, chargeNs float64, err error) {
	bare, err := newRelabelRig(false)
	if err != nil {
		return nil, 0, 0, err
	}
	bud, err := newRelabelRig(true)
	if err != nil {
		return nil, 0, 0, err
	}
	rigs := map[bool]*relabelRig{false: bare, true: bud}
	// Warm both paths (caches, branch predictors).
	for _, rig := range rigs {
		if _, err := rig.batch(relabelBatch); err != nil {
			return nil, 0, 0, err
		}
	}
	rounds := cycles / relabelBatch
	if rounds < 8 {
		rounds = 8
	}
	ratios := make([]float64, 0, rounds)
	batches := map[bool][]float64{}
	total := map[bool]time.Duration{}
	for r := 0; r < rounds; r++ {
		order := []bool{false, true}
		if r%2 == 1 {
			order = []bool{true, false}
		}
		times := map[bool]time.Duration{}
		for _, budgeted := range order {
			d, berr := rigs[budgeted].batch(relabelBatch)
			if berr != nil {
				return nil, 0, 0, berr
			}
			times[budgeted] = d
			total[budgeted] += d
			batches[budgeted] = append(batches[budgeted], float64(d))
		}
		ratios = append(ratios, float64(times[true])/float64(times[false]))
	}
	overhead = median(ratios)
	chargeNs = (median(batches[true]) - median(batches[false])) / relabelBatch
	return map[string]time.Duration{"bare": total[false], "budgeted": total[true]}, overhead, chargeNs, nil
}

// budgetContention runs the zipfian tenant mix against a memory-only
// ledger: reqs draws over tenants tags, each request doing a sliver of
// simulated app work and then charging one unit. Fixed seed, so the
// table is reproducible.
func budgetContention(tenants, reqs int, zipfS float64) []BudgetTenantRow {
	led := budget.New()
	limit := uint64(reqs / (2 * tenants)) // head tenants exhaust, the tail never does
	if limit == 0 {
		limit = 1
	}
	for i := 0; i < tenants; i++ {
		led.SetLimit(difc.Tag(i+1), 1, limit)
	}
	rows := make([]BudgetTenantRow, tenants)
	for i := range rows {
		rows[i] = BudgetTenantRow{Tenant: i + 1, Limit: limit}
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(tenants-1))
	for r := 0; r < reqs; r++ {
		tenant := int(zipf.Uint64())
		simwork.Do(16)
		rows[tenant].Requests++
		if err := led.Charge("send", difc.Tag(tenant+1), 1, 1); err != nil {
			rows[tenant].Denied++
		} else {
			rows[tenant].Charged++
		}
	}
	for i := range rows {
		if f, ok := led.Fact(difc.Tag(i+1), 1); ok {
			rows[i].Spent = f.Spent
		}
	}
	return rows
}

// Budget runs the gated relabel comparison and the informational netd
// and contention sections (best of trials per cell, modes interleaved).
func Budget(msgs, trials int) (*BudgetReport, error) {
	const payload = 1024
	const cycles = 100000
	const tenants, tenantReqs = 8, 20000
	const zipfS = 1.2
	rep := &BudgetReport{Cycles: cycles, Msgs: msgs, Payload: payload, Trials: trials,
		GateMax: budgetGate, AppWork: budgetAppWork,
		Tenants: tenants, ZipfS: zipfS, TenantReqs: tenantReqs}

	modes := []bool{false, true}
	name := func(budgeted bool) string {
		if budgeted {
			return "budgeted"
		}
		return "bare"
	}

	// Gated section: the paired declassify-request storm.
	relabelWall, overhead, chargeNs, err := runBudgetRelabel(cycles)
	if err != nil {
		return nil, err
	}
	for _, budgeted := range modes {
		wall := relabelWall[name(budgeted)]
		rep.RelabelRows = append(rep.RelabelRows, BudgetRow{Mode: name(budgeted), Ops: cycles,
			WallNs: wall.Nanoseconds(), OpsPerSec: float64(cycles) / wall.Seconds()})
	}
	rep.Overhead = overhead
	rep.ChargeNs = chargeNs
	rep.Pass = rep.Overhead <= rep.GateMax

	// Informational section: the labeled netd storm over loopback TCP, on
	// a channel labeled {t1}. With budgeted set, the sender carries a
	// ledger whose (t1, receiver) fact has a limit the run can never
	// exhaust — every drain pays the charge, no drain is denied.
	bestNetd, err := minTimeModes(trials, msgs, modes, func(budgeted bool, msgs int) (time.Duration, error) {
		var led *budget.Ledger
		if budgeted {
			led = budget.New()
		}
		boot := func(id uint64) (*netdPeer, error) {
			opts := []kernel.Option{kernel.WithoutTelemetry()}
			if id == 1 && led != nil {
				opts = append(opts, kernel.WithBudget(led))
			}
			return bootNetdPeer(id, opts, netlabel.Config{Batching: true})
		}
		open := func(a, b *netdPeer) (fdA, fdB kernel.FD, err error) {
			t1, err := a.k.AllocTag(a.user)
			if err != nil {
				return 0, 0, err
			}
			labels := difc.Labels{S: difc.NewLabel(t1)}
			if led != nil {
				if err := led.SetLimit(t1, 2, 1<<62); err != nil {
					return 0, 0, err
				}
			}
			if fdA, fdB, err = openNetdChannel(a, b, labels); err != nil {
				return 0, 0, err
			}
			// The receiver legitimately holds t1 (endorsed by its TCB), so
			// the labeled reads are allowed and the hot path measures
			// transport + charging, not denials.
			b.mod.AdoptTaskLabels(b.user, labels)
			return fdA, fdB, nil
		}
		return runNetd("budget bench", payload, msgs, boot, open)
	})
	if err != nil {
		return nil, fmt.Errorf("netd storm: %w", err)
	}
	netdRate := map[bool]float64{}
	for _, budgeted := range modes {
		rate := float64(msgs) / bestNetd[budgeted].Seconds()
		netdRate[budgeted] = rate
		rep.NetdRows = append(rep.NetdRows, BudgetRow{Mode: name(budgeted), Ops: msgs,
			WallNs: bestNetd[budgeted].Nanoseconds(), OpsPerSec: rate})
	}
	rep.NetdOverhead = netdRate[false] / netdRate[true]

	rep.Contention = budgetContention(tenants, tenantReqs, zipfS)
	return rep, nil
}

// Gate returns why the run misses its gate, or "" when it passes.
func (r *BudgetReport) Gate() string {
	if r.Pass {
		return ""
	}
	return fmt.Sprintf("unexhausted budget-charge overhead %.3fx exceeds %.2fx gate", r.Overhead, r.GateMax)
}

// Format renders the text tables for EXPERIMENTS.md.
func (r *BudgetReport) Format() string {
	var b strings.Builder
	b.WriteString(header("budget: flow-budget charging on the declassification hot paths"))
	fmt.Fprintf(&b, "declassify-request storm: %d cycles (%d simwork units + taint + charged untaint), paired batches — GATED\n\n",
		r.Cycles, r.AppWork)
	fmt.Fprintf(&b, "%-9s %14s %12s\n", "mode", "cycles/sec", "wall")
	for _, row := range r.RelabelRows {
		fmt.Fprintf(&b, "%-9s %14.0f %12s\n", row.Mode, row.OpsPerSec, time.Duration(row.WallNs))
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\nunexhausted-charge overhead vs bare: %.3fx median of paired-batch ratios (gate ≤ %.2fx), ≈%.0fns per cycle\ngate: %s\n",
		r.Overhead, r.GateMax, r.ChargeNs, verdict)

	fmt.Fprintf(&b, "\nnetd storm: %d messages of %d bytes over a {t1} channel, batching on (informational)\n\n",
		r.Msgs, r.Payload)
	fmt.Fprintf(&b, "%-9s %14s %12s\n", "mode", "msgs/sec", "wall")
	for _, row := range r.NetdRows {
		fmt.Fprintf(&b, "%-9s %14.0f %12s\n", row.Mode, row.OpsPerSec, time.Duration(row.WallNs))
	}
	fmt.Fprintf(&b, "\nper-drain charge overhead vs bare: %.3fx (informational, not gated: its run-to-run spread exceeds the charge it measures)\n", r.NetdOverhead)

	fmt.Fprintf(&b, "\ntenant contention: %d requests over %d tenants, zipf s=%.1f, per-tenant limit %d (informational)\n\n",
		r.TenantReqs, r.Tenants, r.ZipfS, r.Contention[0].Limit)
	fmt.Fprintf(&b, "%-7s %9s %9s %9s %12s\n", "tenant", "requests", "charged", "denied", "spent/limit")
	for _, row := range r.Contention {
		fmt.Fprintf(&b, "%-7d %9d %9d %9d %6d/%d\n",
			row.Tenant, row.Requests, row.Charged, row.Denied, row.Spent, row.Limit)
	}
	return b.String()
}
