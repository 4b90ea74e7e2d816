// Package budget is the quantitative flow-budget ledger: per-(tag, peer)
// declassification allowances charged fail-closed BEFORE any transport or
// persistence side effect can leak labeled bytes.
//
// The Laminar model (DESIGN.md §1-§5) is binary: a task holding t- may
// declassify tag t in unbounded volume. The ledger makes declassification
// volume a first-class resource. A fact is a CRDT-style semilattice
// element keyed by (tag, peer):
//
//	Fact{Spent, Limit, Epoch}
//	merge(a, b) = b                         if b.Epoch > a.Epoch
//	            = a                         if a.Epoch > b.Epoch
//	            = {max(spent), min(limit)}  if epochs equal
//
// so cluster-wide spend is monotone and deterministic: merging the same
// facts in any order, any number of times, converges (max/min are
// commutative, associative and idempotent), and an administrative limit
// change rides a higher epoch that wins wholesale.
//
// Absent facts mean UNTRACKED: a tag nobody budgeted costs one compare
// in a sorted walk of the peer's tracked tags, takes no lock and persists
// nothing. Only explicitly budgeted (tag, peer) pairs pay the durability
// cost.
//
// Charging is fail closed end to end:
//
//   - the in-memory spent is raised before the durable write, and stays
//     raised if the write fails — a persist error denies the operation
//     but never un-spends;
//   - the durable write (shadow-write + flip, the PR 1 protocol) completes
//     before Charge acks, so an acknowledged charge survives a crash;
//   - crash recovery MERGES whatever decodes (commit, shadow, or both)
//     with spent=max — a torn flip can only round spend up, never down;
//   - a record where nothing decodes quarantines the fact to
//     {Spent: MaxUint64, Limit: 0}: zero budget, not infinite.
//
// Exhaustion is reported as the existing *difc.FlowError secrecy shape —
// the same error a missing t- capability produces — so a budget denial is
// indistinguishable from a capability denial in every verdict stream and
// replays through laminar-trace explain-denial unchanged.
package budget

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
	"laminar/internal/telemetry"
)

// Store is the durable keyspace ledger facts live in. It is structurally
// identical to cluster.Store (PR 6) so the same MemStore a test harness
// keeps across simulated kills serves both; budget deliberately does not
// import cluster (the kernel imports budget, cluster imports the kernel).
type Store interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
	Delete(key string)
	Keys() []string
}

// Key identifies one budget fact: a secrecy tag and the peer (remote node
// id) the spend is against. Peer 0 is the local context — capability
// relabels and region exits, where the "peer" is the unlabeled world.
type Key struct {
	Tag  difc.Tag
	Peer uint64
}

// Fact is the semilattice point for one key. Spent only grows (merge =
// max), Limit only shrinks within an epoch (merge = min), and a higher
// Epoch wins wholesale — that is how an administrator raises a limit
// without fighting the lattice.
type Fact struct {
	Spent uint64
	Limit uint64
	Epoch uint64
}

// Exhausted reports whether no further spend fits under the limit.
func (f Fact) Exhausted() bool { return f.Spent >= f.Limit }

// quarantined reports the recovery sentinel: zero limit, saturated spend.
func (f Fact) quarantined() bool { return f.Limit == 0 && f.Spent == math.MaxUint64 }

// Remaining returns the budget left under this fact.
func (f Fact) Remaining() uint64 {
	if f.Spent >= f.Limit {
		return 0
	}
	return f.Limit - f.Spent
}

// merge folds other into f per the semilattice and reports whether f
// changed. Equal-epoch merge takes max spend and min limit; the higher
// epoch wins wholesale.
func (f Fact) merge(other Fact) (Fact, bool) {
	switch {
	case other.Epoch > f.Epoch:
		return other, other != f
	case other.Epoch < f.Epoch:
		return f, false
	}
	m := Fact{Spent: maxU64(f.Spent, other.Spent), Limit: minU64(f.Limit, other.Limit), Epoch: f.Epoch}
	return m, m != f
}

// satAdd is saturating addition: a wrapped spend counter would silently
// un-exhaust a budget, so sums clamp at MaxUint64 instead.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// CostBytes converts a payload size to charge units: 1 unit per started
// KiB, minimum 1 — so a one-byte leak still spends.
func CostBytes(n int) uint64 {
	if n <= 0 {
		return 1
	}
	return uint64((n + 1023) / 1024)
}

// Ledger is the process-local budget authority. All methods are safe
// for concurrent use.
//
// The fact table is copy-on-write: a map from peer to that peer's
// tracked tags, sorted ascending, each with an atomic slot. Mutators
// (SetLimit, MergeFacts, recovery) copy and republish it under the
// ledger mutex, so the unexhausted charge hot path is LOCK-FREE — one
// atomic table load, one peer lookup, a merge walk of the sorted label
// against the peer's row, and one compare-and-swap on the spend counter
// per tracked tag. When a durable store is attached, charging instead
// serializes under the mutex so the raise-then-persist ordering holds;
// the lock-free path serves the memory-only ledgers the kernel runs by
// default, which is where the -budgetgate ceiling binds.
//
// Lock order: callers may hold task locks when charging; the ledger
// mutex is leaf-level below them, and the ledger never calls back into
// the kernel.
type Ledger struct {
	mu    sync.Mutex // serializes mutators and persistence
	facts atomic.Pointer[table]

	store Store
	inj   faultinject.Injector
	rec   *telemetry.Recorder
}

// slot holds one fact's live counters. Spent is raced by lock-free
// chargers (compare-and-swap); limit and epoch are written only under
// the ledger mutex and read atomically everywhere. noted latches
// "exhaustion already counted in budget.exhausted" and resets when a
// limit change or merge reopens the budget.
type slot struct {
	spent atomic.Uint64
	limit atomic.Uint64
	epoch atomic.Uint64
	noted atomic.Bool
}

func newSlot(f Fact) *slot {
	s := &slot{}
	s.spent.Store(f.Spent)
	s.limit.Store(f.Limit)
	s.epoch.Store(f.Epoch)
	return s
}

// fact reads the slot field by field. A reader racing an administrative
// change can see a mixed view; that is equivalent to ordering its
// operation immediately before or after the change, and the semilattice
// keeps either order safe.
func (s *slot) fact() Fact {
	return Fact{Spent: s.spent.Load(), Limit: s.limit.Load(), Epoch: s.epoch.Load()}
}

// entry is one tracked tag in a peer's row.
type entry struct {
	tag difc.Tag
	s   *slot
}

// table maps each peer to its tracked tags, sorted ascending by tag. A
// published table and its rows are immutable; mutators publish a fresh
// copy.
type table map[uint64][]entry

// table returns the current fact table.
func (l *Ledger) table() table { return *l.facts.Load() }

// lookup returns the slot for (tag, peer), or nil when the pair is
// untracked.
func (t table) lookup(tag difc.Tag, peer uint64) *slot {
	row := t[peer]
	if i := seek(row, 0, tag); i < len(row) && row[i].tag == tag {
		return row[i].s
	}
	return nil
}

// seek returns the first index i >= j with row[i].tag >= tag, or
// len(row). One compare settles the dense case, where the tag is at j;
// otherwise a binary search over row[j+1:] finds it in O(log n)
// compares. The search always halves and selects with arithmetic
// rather than a branch, so a stream of one-tag charges for unrelated
// tags does not pay a mispredicted branch per step.
func seek(row []entry, j int, tag difc.Tag) int {
	if j >= len(row) || row[j].tag >= tag {
		return j
	}
	// Invariant: row[base].tag < tag, and the answer lies in
	// (base, base+n].
	base, n := j, len(row)-j
	for n > 1 {
		half := n >> 1
		// borrow is 1 exactly when row[base+half].tag < tag.
		_, borrow := bits.Sub64(uint64(row[base+half].tag), uint64(tag), 0)
		base += half & -int(borrow)
		n -= half
	}
	return base + 1
}

// eachTracked calls fn, in ascending tag order, for every tag of lab that
// row tracks, stopping early when fn returns false or the row runs out.
// It merge-walks the sorted label against the sorted row: an untracked
// tag costs a compare, and seek binary-searches over row entries the
// label skips, so a 1-tag label against a wide row does not scan it.
func eachTracked(lab difc.Label, row []entry, fn func(difc.Tag, *slot) bool) {
	j := 0
	lab.Each(func(tag difc.Tag) bool {
		if j = seek(row, j, tag); j == len(row) {
			return false // no tracked tag at or beyond this one
		}
		if row[j].tag != tag {
			return true // untracked: free
		}
		j++
		return fn(tag, row[j-1].s)
	})
}

// installLocked publishes a new table containing s at k. Callers hold
// l.mu (or, during New, the ledger is not yet shared).
func (l *Ledger) installLocked(k Key, s *slot) {
	old := l.table()
	next := make(table, len(old)+1)
	for p, row := range old {
		next[p] = row
	}
	row := old[k.Peer]
	i := seek(row, 0, k.Tag)
	nrow := make([]entry, 0, len(row)+1)
	nrow = append(nrow, row[:i]...)
	nrow = append(nrow, entry{tag: k.Tag, s: s})
	if i < len(row) && row[i].tag == k.Tag {
		i++ // replace
	}
	next[k.Peer] = append(nrow, row[i:]...)
	l.facts.Store(&next)
}

// Option configures a Ledger.
type Option func(*Ledger)

// WithStore attaches the durable store; facts persist through the
// shadow-write protocol and are recovered (merged, fail closed) by New.
func WithStore(s Store) Option { return func(l *Ledger) { l.store = s } }

// WithInjector attaches the deterministic fault plan consulted at the
// budget.ckpt.* checkpoint sites.
func WithInjector(inj faultinject.Injector) Option { return func(l *Ledger) { l.inj = inj } }

// WithRecorder attaches a telemetry recorder for the budget.* counters.
func WithRecorder(rec *telemetry.Recorder) Option { return func(l *Ledger) { l.rec = rec } }

// New builds a ledger and, if a store is attached, recovers every
// persisted fact. Recovery merges whatever decodes and quarantines
// undecodable records to zero budget.
func New(opts ...Option) *Ledger {
	l := &Ledger{}
	l.facts.Store(&table{})
	for _, o := range opts {
		o(l)
	}
	l.recover()
	return l
}

// SetLimit installs or replaces the budget for (tag, peer). The new fact
// keeps the accumulated spend and rides a bumped epoch so it wins
// wholesale over every older fact in the cluster. Returns the persist
// error, if any; the in-memory fact is installed regardless (fail
// closed: a limit you could not persist still constrains this boot).
func (l *Ledger) SetLimit(tag difc.Tag, peer, limit uint64) error {
	l.mu.Lock()
	k := Key{Tag: tag, Peer: peer}
	s := l.table().lookup(tag, peer)
	if s == nil {
		s = newSlot(Fact{})
		l.installLocked(k, s)
	}
	old := s.fact()
	if old.quarantined() {
		// The quarantine sentinel is not real accounting; a deliberate
		// new limit starts the pair's ledger over.
		s.spent.Store(0)
	}
	s.limit.Store(limit)
	s.epoch.Store(old.Epoch + 1)
	s.noted.Store(false)
	err := l.persistLocked(k, s.fact())
	l.mu.Unlock()
	l.count("budget.limit.set", 1)
	return err
}

// Fact returns the current fact for (tag, peer) and whether one exists.
// An absent fact means the pair is untracked (unlimited).
func (l *Ledger) Fact(tag difc.Tag, peer uint64) (Fact, bool) {
	s := l.table().lookup(tag, peer)
	if s == nil {
		return Fact{}, false
	}
	return s.fact(), true
}

// Charge spends cost units of tag's budget against peer. It must be
// called BEFORE the side effect it meters (queueing a frame, committing
// a relabel, leaving a region): a nil return is the permission to
// proceed, and by then the raised spend is durable.
//
// The returned error on exhaustion (or persist failure — fail closed) is
// the exact *difc.FlowError a missing minus-capability secrecy denial
// produces, so budget denials are indistinguishable from capability
// denials in every verdict stream and replay through explain-denial.
//
// Untracked (tag, peer) pairs charge nothing and always succeed. Charge
// is ChargeLabel on the one-tag label {tag}; InvalidTag is never a label
// member, so it is never charged.
func (l *Ledger) Charge(op string, tag difc.Tag, peer, cost uint64) error {
	return l.ChargeLabel(op, difc.NewLabel(tag), peer, cost)
}

// chargeSlot spends cost on s lock-free. denied reports exhaustion;
// crossed reports that this call was the first to observe it (the
// caller counts it in budget.exhausted).
func chargeSlot(s *slot, cost uint64) (denied, crossed bool) {
	limit := s.limit.Load()
	for {
		cur := s.spent.Load()
		newSpent := satAdd(cur, cost)
		if cur >= limit || newSpent > limit {
			return true, s.noted.CompareAndSwap(false, true)
		}
		if s.spent.CompareAndSwap(cur, newSpent) {
			if newSpent >= limit {
				return false, s.noted.CompareAndSwap(false, true)
			}
			return false, false
		}
	}
}

// ChargeLabel charges every tag of a secrecy label the same cost against
// peer, stopping at the first denial. Partial spends before the denial
// stand (they metered real budget headroom the caller is about to not
// use — rounding up, never down). This is the per-declassify / per-drain
// hot path the -budgetgate ceiling binds: on a memory-only ledger it is
// lock-free and allocation-free — one table load and one peer lookup,
// then a merge walk of the label against the peer's sorted row with a
// compare-and-swap per tracked tag.
func (l *Ledger) ChargeLabel(op string, lab difc.Label, peer, cost uint64) error {
	if lab.IsEmpty() {
		return nil
	}
	if cost == 0 {
		cost = 1
	}
	if l.store != nil {
		return l.chargeLabelDurable(op, lab, peer, cost)
	}
	row := l.table()[peer]
	if len(row) == 0 {
		return nil
	}
	var (
		deniedTag difc.Tag
		denied    bool
		charged   uint64
		exhausted uint64
	)
	eachTracked(lab, row, func(tag difc.Tag, s *slot) bool {
		d, crossed := chargeSlot(s, cost)
		if crossed {
			exhausted++
		}
		if d {
			deniedTag, denied = tag, true
			return false
		}
		charged++
		return true
	})
	if charged > 0 {
		l.count("budget.charged", charged)
	}
	if exhausted > 0 {
		l.count("budget.exhausted", exhausted)
	}
	if denied {
		l.count("budget.denied", 1)
		return ExhaustedError(op, deniedTag)
	}
	return nil
}

// chargeLabelDurable is ChargeLabel for a store-backed ledger: the whole
// label charges under one mutex acquisition, each tag raising its spend
// and persisting before the next. Fail closed: the in-memory spend is
// raised first and stays raised if the write fails — the operation is
// denied and the ledger may over-count across a crash, never
// under-count.
func (l *Ledger) chargeLabelDurable(op string, lab difc.Label, peer, cost uint64) error {
	var (
		deniedTag  difc.Tag
		denied     bool
		charged    uint64
		exhausted  uint64
		persistErr bool
	)
	l.mu.Lock()
	eachTracked(lab, l.table()[peer], func(tag difc.Tag, s *slot) bool {
		f := s.fact()
		newSpent := satAdd(f.Spent, cost)
		if f.Exhausted() || newSpent > f.Limit {
			if s.noted.CompareAndSwap(false, true) {
				exhausted++
			}
			deniedTag, denied = tag, true
			return false
		}
		s.spent.Store(newSpent)
		charged++
		err := l.persistLocked(Key{Tag: tag, Peer: peer}, s.fact())
		if newSpent >= f.Limit && s.noted.CompareAndSwap(false, true) {
			exhausted++
		}
		if err != nil {
			// Fail closed: the raised spend stands, the operation is
			// denied.
			persistErr = true
			deniedTag, denied = tag, true
			return false
		}
		return true
	})
	l.mu.Unlock()
	if charged > 0 {
		l.count("budget.charged", charged)
	}
	if denied && !persistErr {
		l.count("budget.denied", 1)
	}
	if exhausted > 0 {
		l.count("budget.exhausted", exhausted)
	}
	if persistErr {
		l.count("budget.persist.fail", 1)
	}
	if denied {
		return ExhaustedError(op, deniedTag)
	}
	return nil
}

// ExhaustedError builds the denial for op on tag: the secrecy FlowError
// for {S(tag)} -> {} — exactly the shape difc.CheckFlow produces when a
// task without t- tries to move t-labeled data to an unlabeled sink, so
// telemetry replay re-runs the check and MATCHES.
func ExhaustedError(op string, tag difc.Tag) *difc.FlowError {
	return &difc.FlowError{
		Op:   op,
		Src:  difc.Labels{S: difc.NewLabel(tag)},
		Dst:  difc.Labels{},
		Rule: "secrecy",
	}
}

func (l *Ledger) count(name string, delta uint64) {
	if l.rec == nil {
		return
	}
	l.rec.M.Extra.Get(name).Add(0, delta)
}

// ---- cluster fact exchange ----------------------------------------------

// factWireSize is the encoded size of one fact: tag, peer, spent, limit,
// epoch — five u64s.
const factWireSize = 5 * 8

// MaxFactsBlob bounds an encoded fact set (mirrors the stats blob cap).
const MaxFactsBlob = 64 * 1024

// ExportFacts encodes every fact for the cluster control plane: u16
// count, then count fixed-width records in sorted key order (the
// encoding is deterministic so identical ledgers produce identical
// blobs). Returns nil when the ledger is empty.
func (l *Ledger) ExportFacts() []byte {
	m := l.Snapshot()
	if len(m) == 0 {
		return nil
	}
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tag != keys[j].Tag {
			return keys[i].Tag < keys[j].Tag
		}
		return keys[i].Peer < keys[j].Peer
	})
	buf := make([]byte, 0, 2+len(keys)*factWireSize)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(keys)))
	for _, k := range keys {
		f := m[k]
		buf = binary.BigEndian.AppendUint64(buf, uint64(k.Tag))
		buf = binary.BigEndian.AppendUint64(buf, k.Peer)
		buf = binary.BigEndian.AppendUint64(buf, f.Spent)
		buf = binary.BigEndian.AppendUint64(buf, f.Limit)
		buf = binary.BigEndian.AppendUint64(buf, f.Epoch)
	}
	return buf
}

// DecodeFacts parses an ExportFacts blob. Strict framing: a short body,
// trailing bytes, or an oversized blob is an error and the whole blob is
// rejected — a half-parsed fact set must never half-merge.
func DecodeFacts(b []byte) (map[Key]Fact, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) > MaxFactsBlob {
		return nil, fmt.Errorf("budget: facts blob %d bytes exceeds cap %d", len(b), MaxFactsBlob)
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("budget: facts blob truncated (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != n*factWireSize {
		return nil, fmt.Errorf("budget: facts blob: want %d records (%d bytes), have %d bytes", n, n*factWireSize, len(b))
	}
	out := make(map[Key]Fact, n)
	for i := 0; i < n; i++ {
		rec := b[i*factWireSize:]
		k := Key{Tag: difc.Tag(binary.BigEndian.Uint64(rec)), Peer: binary.BigEndian.Uint64(rec[8:])}
		out[k] = Fact{
			Spent: binary.BigEndian.Uint64(rec[16:]),
			Limit: binary.BigEndian.Uint64(rec[24:]),
			Epoch: binary.BigEndian.Uint64(rec[32:]),
		}
	}
	return out, nil
}

// MergeFacts folds a decoded fact set into the ledger with the
// semilattice merge and reports how many facts changed. Facts the ledger
// has never seen are adopted as-is (a peer budgeted a pair we had no
// opinion on). Changed facts persist; a tightening merge re-arms the
// exhaustion latch.
func (l *Ledger) MergeFacts(facts map[Key]Fact) int {
	if len(facts) == 0 {
		return 0
	}
	l.mu.Lock()
	changed := 0
	for k, in := range facts {
		s := l.table().lookup(k.Tag, k.Peer)
		if s == nil {
			l.installLocked(k, newSlot(in))
			l.persistLocked(k, in)
			changed++
			continue
		}
		cur := s.fact()
		m, dirty := cur.merge(in)
		if !dirty {
			continue
		}
		s.limit.Store(m.Limit)
		s.epoch.Store(m.Epoch)
		mergeSpent(s, cur, m)
		if m.Epoch > cur.Epoch || m.Limit < cur.Limit || (m.Exhausted() && !cur.Exhausted()) {
			s.noted.Store(false)
		}
		l.persistLocked(k, s.fact())
		changed++
	}
	l.mu.Unlock()
	if changed > 0 {
		l.count("budget.merge.facts", uint64(changed))
	}
	return changed
}

// mergeSpent folds merged spend m into the live counter. A wholesale
// epoch win replaces the counter (an administrative reset absorbs any
// racing charge into its new baseline, exactly as a charge ordered
// before the reset would be); an equal-epoch max must CAS upward so a
// racing lock-free charge is never rolled back.
func mergeSpent(s *slot, cur, m Fact) {
	if m.Epoch != cur.Epoch {
		s.spent.Store(m.Spent)
		return
	}
	for {
		live := s.spent.Load()
		if m.Spent <= live {
			return
		}
		if s.spent.CompareAndSwap(live, m.Spent) {
			return
		}
	}
}

// Snapshot returns a copy of every fact, for inspection and tests.
func (l *Ledger) Snapshot() map[Key]Fact {
	out := make(map[Key]Fact)
	for peer, row := range l.table() {
		for _, e := range row {
			out[Key{Tag: e.tag, Peer: peer}] = e.s.fact()
		}
	}
	return out
}

// ---- persistence: shadow-write + flip, merge-on-recover ------------------

// Per-fact records reuse the PR 1 protocol byte for byte (magic "LMB1",
// crc32 seal, <key>#shadow staging) with one deliberate divergence in
// recovery: where the cluster change engine trusts a valid COMMIT and
// ignores the shadow, the ledger MERGES every record that decodes. A
// crash between the shadow write and the flip leaves the newer spend in
// the shadow; preferring the stale commit would round spend DOWN. The
// semilattice makes the merge safe: max(spent) is exactly "never
// under-count".

var recMagic = [4]byte{'L', 'M', 'B', '1'}

const (
	keyPrefix    = "budget/"
	shadowSuffix = "#shadow"
)

func storeKey(k Key) string {
	return keyPrefix + strconv.FormatUint(uint64(k.Tag), 10) + "/" + strconv.FormatUint(k.Peer, 10)
}

// parseStoreKey recovers the Key from a store key name, so a quarantined
// fact (torn payload) still knows which (tag, peer) to zero out.
func parseStoreKey(s string) (Key, bool) {
	s, ok := strings.CutPrefix(s, keyPrefix)
	if !ok {
		return Key{}, false
	}
	tagStr, peerStr, ok := strings.Cut(s, "/")
	if !ok {
		return Key{}, false
	}
	tag, err1 := strconv.ParseUint(tagStr, 10, 64)
	peer, err2 := strconv.ParseUint(peerStr, 10, 64)
	if err1 != nil || err2 != nil {
		return Key{}, false
	}
	return Key{Tag: difc.Tag(tag), Peer: peer}, true
}

func sealFact(f Fact) []byte {
	buf := make([]byte, 0, 4+3*8+4)
	buf = append(buf, recMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, f.Spent)
	buf = binary.BigEndian.AppendUint64(buf, f.Limit)
	buf = binary.BigEndian.AppendUint64(buf, f.Epoch)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func openFact(rec []byte) (Fact, error) {
	if len(rec) != 4+3*8+4 {
		return Fact{}, fmt.Errorf("budget record truncated (%d bytes)", len(rec))
	}
	if [4]byte(rec[:4]) != recMagic {
		return Fact{}, fmt.Errorf("budget record bad magic %q", rec[:4])
	}
	body, sum := rec[:len(rec)-4], rec[len(rec)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return Fact{}, fmt.Errorf("budget record checksum mismatch")
	}
	return Fact{
		Spent: binary.BigEndian.Uint64(body[4:]),
		Limit: binary.BigEndian.Uint64(body[12:]),
		Epoch: binary.BigEndian.Uint64(body[20:]),
	}, nil
}

// ckptFault consults the injector at a checkpoint step. Both Error and
// Crash tear the record in progress; the caller denies the charge either
// way (fail closed) and recovery repairs the tear.
func (l *Ledger) ckptFault(site string) error {
	if l.inj == nil {
		return nil
	}
	switch l.inj.At(site) {
	case faultinject.Error, faultinject.Crash:
		return fmt.Errorf("budget: injected fault at %s", site)
	default:
		return nil
	}
}

// persistLocked runs shadow-write + flip for one fact. Called with l.mu
// held; a nil store persists nothing (memory-only ledger). Under an
// injected fault the step in progress tears — half the record lands —
// and the error propagates so the charge is denied.
func (l *Ledger) persistLocked(k Key, f Fact) error {
	if l.store == nil {
		return nil
	}
	key := storeKey(k)
	rec := sealFact(f)
	if err := l.ckptFault("budget.ckpt.shadow"); err != nil {
		l.store.Set(key+shadowSuffix, rec[:len(rec)/2])
		return err
	}
	l.store.Set(key+shadowSuffix, rec)
	if err := l.ckptFault("budget.ckpt.commit"); err != nil {
		l.store.Set(key, rec[:len(rec)/2])
		return err
	}
	l.store.Set(key, rec)
	if err := l.ckptFault("budget.ckpt.clear"); err != nil {
		return err // shadow left behind; both records valid, recovery merges
	}
	l.store.Delete(key + shadowSuffix)
	return nil
}

// recover loads every persisted fact at boot. Per key: merge whatever
// decodes (commit, shadow, or both — spent=max rounds a torn flip UP);
// if records exist but nothing decodes, the fact is QUARANTINED to
// {Spent: MaxUint64, Limit: 0} — zero budget until an administrator
// installs a fresh limit under a higher epoch. Recovery writes bypass
// fault injection: this is the quiesced fsck pass.
func (l *Ledger) recover() {
	if l.store == nil {
		return
	}
	seen := make(map[string]bool)
	for _, key := range l.store.Keys() {
		base := strings.TrimSuffix(key, shadowSuffix)
		if !strings.HasPrefix(base, keyPrefix) || seen[base] {
			continue
		}
		seen[base] = true
		k, ok := parseStoreKey(base)
		if !ok {
			continue
		}
		commit, hasCommit := l.store.Get(base)
		shadow, hasShadow := l.store.Get(base + shadowSuffix)
		var f Fact
		valid := false
		if hasCommit {
			if p, err := openFact(commit); err == nil {
				f, valid = p, true
			}
		}
		if hasShadow {
			if p, err := openFact(shadow); err == nil {
				if valid {
					f, _ = f.merge(p)
				} else {
					f, valid = p, true
				}
			}
		}
		if !valid {
			// Nothing trustworthy: quarantine to zero budget. The fact
			// merges safely cluster-wide (max spend, min limit) and only
			// a deliberate higher-epoch SetLimit clears it.
			f = Fact{Spent: math.MaxUint64, Limit: 0, Epoch: 0}
			l.count("budget.quarantined", 1)
		}
		l.installLocked(k, newSlot(f))
		l.store.Set(base, sealFact(f))
		l.store.Delete(base + shadowSuffix)
	}
}
