// Package faultinject is a deterministic, seed-driven fault-injection
// plan for the simulated kernel and runtime. Every injection point in the
// syscall layer, the LSM hook table, the label-persistence path and the
// transport consults a Plan; the Plan answers with a fault kind computed
// as a pure function of (seed, step), so re-running a seed reproduces the
// same fault schedule byte-for-byte regardless of goroutine interleaving.
//
// The fault model (DESIGN.md §8):
//
//   - Error: the operation fails. Enforcement paths treat an injected
//     error exactly like a policy denial (fail closed); data paths abort
//     with EIO, possibly after a torn (partial) write.
//   - Crash: the acting task is killed mid-operation, with no error
//     cleanup — whatever partial state the operation had written stays,
//     modeling a machine crash for the recovery pass to repair.
//   - Delay: the operation is delayed (a scheduling hiccup); semantics
//     are unchanged. Under the simulated kernel this is a yield, which is
//     enough to shake out ordering assumptions under -race.
package faultinject

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Kind is the class of fault injected at a point.
type Kind uint8

// Fault kinds.
const (
	None Kind = iota
	Error
	Crash
	Delay
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	default:
		return "unknown"
	}
}

// Injector is the interface injection points consult. A nil Injector (the
// production configuration) injects nothing.
type Injector interface {
	// At reports the fault to inject at the named site. Site names are
	// dotted paths ("fs.write", "persist.commit", "hook.InodePermission");
	// rates may be configured per site prefix.
	At(site string) Kind
}

// Rates configures per-class fault probabilities in [0,1]. The classes
// are disjoint: a draw lands in at most one.
type Rates struct {
	Error float64
	Crash float64
	Delay float64
}

// Decision records one injection-point consultation.
type Decision struct {
	Step uint64
	Site string
	Kind Kind
}

// Plan is a deterministic fault schedule. The decision at step n depends
// only on the seed, n, and the rates configured for the site's longest
// matching prefix — never on wall-clock time or interleaving — so a
// failing seed replays the identical schedule.
type Plan struct {
	seed int64

	mu       sync.Mutex
	step     uint64
	defaults Rates
	rates    map[string]Rates // site prefix -> rates
	record   bool
	log      []Decision
}

// NewPlan builds a plan for seed with zero default rates (no faults until
// rates are configured).
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, rates: make(map[string]Rates)}
}

// SetDefaultRates sets the rates used by sites with no matching prefix.
func (p *Plan) SetDefaultRates(r Rates) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defaults = r
}

// SetRates configures rates for every site whose name starts with prefix.
// The longest configured prefix wins; an exact site name is the longest
// possible prefix.
func (p *Plan) SetRates(prefix string, r Rates) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rates[prefix] = r
}

// Record enables decision logging (Decisions / Schedule).
func (p *Plan) Record() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.record = true
}

// At implements Injector: draws the next step and decides.
func (p *Plan) At(site string) Kind {
	p.mu.Lock()
	step := p.step
	p.step++
	r := p.defaults
	best := -1
	for prefix, pr := range p.rates {
		if strings.HasPrefix(site, prefix) && len(prefix) > best {
			best = len(prefix)
			r = pr
		}
	}
	k := decide(p.seed, step, r)
	if p.record && k != None {
		p.log = append(p.log, Decision{Step: step, Site: site, Kind: k})
	}
	p.mu.Unlock()
	if k == Delay {
		// A delay is a scheduling hiccup: yield so another goroutine can
		// interleave. Semantics are otherwise unchanged.
		runtime.Gosched()
	}
	return k
}

// Decisions returns the recorded non-None decisions in consultation order.
func (p *Plan) Decisions() []Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Decision, len(p.log))
	copy(out, p.log)
	return out
}

// Schedule formats the recorded fault schedule, one decision per line.
// For a given seed and a deterministic (single-goroutine) workload the
// output is byte-for-byte stable across runs.
func (p *Plan) Schedule() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d\n", p.seed)
	for _, d := range p.Decisions() {
		fmt.Fprintf(&b, "step=%d site=%s fault=%s\n", d.Step, d.Site, d.Kind)
	}
	return b.String()
}

// decide is the pure decision function: splitmix64 of (seed, step) mapped
// to [0,1) and compared against the cumulative class rates.
func decide(seed int64, step uint64, r Rates) Kind {
	if r.Error == 0 && r.Crash == 0 && r.Delay == 0 {
		return None
	}
	u := float64(splitmix64(uint64(seed)^splitmix64(step))>>11) / float64(1<<53)
	switch {
	case u < r.Error:
		return Error
	case u < r.Error+r.Crash:
		return Crash
	case u < r.Error+r.Crash+r.Delay:
		return Delay
	default:
		return None
	}
}

// splitmix64 is the standard 64-bit finalizer (Vigna); a full-avalanche
// hash, so consecutive steps decorrelate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
