package budget

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"laminar/internal/difc"
	"laminar/internal/faultinject"
)

// memStore mirrors cluster.MemStore locally (budget must not depend on
// cluster) — a map the test keeps across simulated reboots.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Set(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
}

func (s *memStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

func (s *memStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxUint64, 1, math.MaxUint64},
		{math.MaxUint64 - 1, 1, math.MaxUint64},
		{math.MaxUint64 - 1, 2, math.MaxUint64},
		{math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestChargeSaturationRegression is the ISSUE 10 overflow regression: a
// spend counter sitting at MaxUint64-1 must clamp, stay exhausted, and
// never wrap back into budget.
func TestChargeSaturationRegression(t *testing.T) {
	l := New()
	const tag = difc.Tag(7)
	if err := l.SetLimit(tag, 0, math.MaxUint64); err != nil {
		t.Fatalf("SetLimit: %v", err)
	}
	// Force the counter to the edge.
	l.table().lookup(tag, 0).spent.Store(math.MaxUint64 - 1)

	// A huge charge saturates to MaxUint64 == Limit: still within budget.
	if err := l.Charge("send", tag, 0, 1<<40); err != nil {
		t.Fatalf("saturating charge should fit under MaxUint64 limit: %v", err)
	}
	got, _ := l.Fact(tag, 0)
	if got.Spent != math.MaxUint64 {
		t.Fatalf("spent = %d, want saturated MaxUint64", got.Spent)
	}
	if !got.Exhausted() {
		t.Fatal("fact at MaxUint64/MaxUint64 must be exhausted")
	}
	// Any further charge must deny — a wrapping add would have
	// un-exhausted the budget here.
	if err := l.Charge("send", tag, 0, 1); err == nil {
		t.Fatal("charge after saturation must deny")
	}
	if got, _ := l.Fact(tag, 0); got.Spent != math.MaxUint64 {
		t.Fatalf("denied charge moved spent to %d", got.Spent)
	}
}

func TestChargeUntrackedIsFree(t *testing.T) {
	l := New()
	for i := 0; i < 100; i++ {
		if err := l.Charge("send", difc.Tag(42), 9, 1000); err != nil {
			t.Fatalf("untracked charge %d denied: %v", i, err)
		}
	}
	if _, ok := l.Fact(difc.Tag(42), 9); ok {
		t.Fatal("untracked charge created a fact")
	}
}

func TestChargeExhaustion(t *testing.T) {
	l := New()
	const tag = difc.Tag(3)
	mutations := 0
	l.OnMutate(func() { mutations++ })
	l.SetLimit(tag, 0, 3)
	if mutations != 1 {
		t.Fatalf("SetLimit fired %d mutations, want 1", mutations)
	}
	for i := 0; i < 3; i++ {
		if err := l.Charge("drop", tag, 0, 1); err != nil {
			t.Fatalf("charge %d within budget denied: %v", i, err)
		}
	}
	if mutations != 2 {
		t.Fatalf("exhaustion transition fired %d mutations, want 2", mutations)
	}
	if err := l.Charge("drop", tag, 0, 1); err == nil {
		t.Fatal("charge past limit must deny")
	}
	// Repeated denials must not re-fire OnMutate (no epoch-bump storm).
	l.Charge("drop", tag, 0, 1)
	l.Charge("drop", tag, 0, 1)
	if mutations != 2 {
		t.Fatalf("repeat denials fired %d mutations, want 2", mutations)
	}
	// Peer 1 is a different key: still unlimited.
	if err := l.Charge("drop", tag, 1, 1); err != nil {
		t.Fatalf("other peer charge denied: %v", err)
	}
}

// TestExhaustedErrorReplays pins the indistinguishability contract at the
// error level: the exhaustion error must be exactly what CheckFlow
// produces for {S(tag)} -> {}, so explain-denial's re-run MATCHES.
func TestExhaustedErrorReplays(t *testing.T) {
	e := ExhaustedError("send", difc.Tag(5))
	replay := difc.CheckFlow("send", e.Src, e.Dst)
	var fe *difc.FlowError
	if !errors.As(replay, &fe) {
		t.Fatalf("CheckFlow on exhaustion operands allowed: %v", replay)
	}
	if fe.Rule != e.Rule || fe.Error() != e.Error() || !fe.Delta().Equal(e.Delta()) {
		t.Fatalf("replayed denial diverges: %v vs %v", fe, e)
	}
}

func TestMergeSemilattice(t *testing.T) {
	a := Fact{Spent: 10, Limit: 100, Epoch: 2}
	b := Fact{Spent: 30, Limit: 80, Epoch: 2}
	m, dirty := a.merge(b)
	if !dirty || m != (Fact{Spent: 30, Limit: 80, Epoch: 2}) {
		t.Fatalf("equal-epoch merge = %+v (dirty=%v)", m, dirty)
	}
	// Commutative.
	m2, _ := b.merge(a)
	if m2 != m {
		t.Fatalf("merge not commutative: %+v vs %+v", m2, m)
	}
	// Idempotent.
	if mi, dirty := m.merge(m); dirty || mi != m {
		t.Fatalf("merge not idempotent: %+v dirty=%v", mi, dirty)
	}
	// Higher epoch wins wholesale, even with lower spend.
	reset := Fact{Spent: 0, Limit: 1000, Epoch: 3}
	m3, _ := m.merge(reset)
	if m3 != reset {
		t.Fatalf("higher epoch did not win wholesale: %+v", m3)
	}
	// And is not overwritten by stragglers from the old epoch.
	if m4, dirty := m3.merge(b); dirty || m4 != reset {
		t.Fatalf("stale epoch overwrote: %+v dirty=%v", m4, dirty)
	}
	// Associative over a random-ish triple.
	c := Fact{Spent: 25, Limit: 90, Epoch: 2}
	ab, _ := a.merge(b)
	abc1, _ := ab.merge(c)
	bc, _ := b.merge(c)
	abc2, _ := a.merge(bc)
	if abc1 != abc2 {
		t.Fatalf("merge not associative: %+v vs %+v", abc1, abc2)
	}
}

func TestFactsCodecRoundTrip(t *testing.T) {
	l := New()
	l.SetLimit(difc.Tag(1), 0, 50)
	l.SetLimit(difc.Tag(1), 7, 60)
	l.SetLimit(difc.Tag(9), 3, 70)
	l.Charge("send", difc.Tag(1), 7, 5)

	blob := l.ExportFacts()
	facts, err := DecodeFacts(blob)
	if err != nil {
		t.Fatalf("DecodeFacts: %v", err)
	}
	want := l.Snapshot()
	if len(facts) != len(want) {
		t.Fatalf("decoded %d facts, want %d", len(facts), len(want))
	}
	for k, f := range want {
		if facts[k] != f {
			t.Fatalf("fact %+v decoded as %+v, want %+v", k, facts[k], f)
		}
	}
	// Deterministic encoding.
	if blob2 := l.ExportFacts(); string(blob2) != string(blob) {
		t.Fatal("ExportFacts is not deterministic")
	}
	// Strict framing: trailing bytes reject the whole blob.
	if _, err := DecodeFacts(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeFacts(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := DecodeFacts([]byte{0xff}); err == nil {
		t.Fatal("1-byte blob accepted")
	}
	// Empty is fine.
	if facts, err := DecodeFacts(nil); err != nil || facts != nil {
		t.Fatalf("empty blob: %v %v", facts, err)
	}
}

func TestMergeFactsAdoptAndTighten(t *testing.T) {
	l := New()
	mutations := 0
	l.OnMutate(func() { mutations++ })

	// Adoption of an unknown, already-exhausted fact fires OnMutate.
	n := l.MergeFacts(map[Key]Fact{{Tag: 4, Peer: 2}: {Spent: 10, Limit: 10, Epoch: 1}})
	if n != 1 || mutations != 1 {
		t.Fatalf("adopt: changed=%d mutations=%d", n, mutations)
	}
	// Re-merging the same facts is a no-op (idempotent, no mutation).
	if n := l.MergeFacts(map[Key]Fact{{Tag: 4, Peer: 2}: {Spent: 10, Limit: 10, Epoch: 1}}); n != 0 {
		t.Fatalf("idempotent re-merge changed %d facts", n)
	}
	if mutations != 1 {
		t.Fatalf("re-merge fired OnMutate (%d)", mutations)
	}
	// A peer reporting more spend tightens and fires OnMutate.
	l.SetLimit(difc.Tag(5), 0, 100) // mutation 2
	l.Charge("send", difc.Tag(5), 0, 10)
	before := mutations
	l.MergeFacts(map[Key]Fact{{Tag: 5, Peer: 0}: {Spent: 100, Limit: 100, Epoch: 2}})
	f, _ := l.Fact(difc.Tag(5), 0)
	if !f.Exhausted() || f.Spent != 100 {
		t.Fatalf("tightening merge gave %+v", f)
	}
	if mutations != before+1 {
		t.Fatalf("tightening merge fired %d mutations, want %d", mutations, before+1)
	}
	if err := l.Charge("send", difc.Tag(5), 0, 1); err == nil {
		t.Fatal("charge after merged exhaustion allowed")
	}
}

func TestPersistRecoverClean(t *testing.T) {
	st := newMemStore()
	l := New(WithStore(st))
	l.SetLimit(difc.Tag(2), 1, 10)
	l.Charge("send", difc.Tag(2), 1, 4)

	// Reboot from the same store.
	l2 := New(WithStore(st))
	f, ok := l2.Fact(difc.Tag(2), 1)
	if !ok || f != (Fact{Spent: 4, Limit: 10, Epoch: 1}) {
		t.Fatalf("recovered fact %+v ok=%v", f, ok)
	}
}

// TestPersistFaultDeniesAndNeverUndercounts drives injected faults at
// every checkpoint site: a faulted charge is DENIED, and a ledger
// rebooted from the torn store never reports less spend than the charges
// it acknowledged.
func TestPersistFaultDeniesAndNeverUndercounts(t *testing.T) {
	for _, site := range []string{"budget.ckpt.shadow", "budget.ckpt.commit", "budget.ckpt.clear"} {
		t.Run(site, func(t *testing.T) {
			st := newMemStore()
			plan := faultinject.NewPlan(1)
			l := New(WithStore(st), WithInjector(plan))
			l.SetLimit(difc.Tag(8), 0, 100)
			if err := l.Charge("send", difc.Tag(8), 0, 3); err != nil {
				t.Fatalf("clean charge denied: %v", err)
			}
			acked := uint64(3)

			plan.SetRates(site, faultinject.Rates{Error: 1})
			if err := l.Charge("send", difc.Tag(8), 0, 5); err == nil {
				t.Fatal("faulted charge acked")
			}
			// Fail closed in memory too: the raised spend stands.
			if f, _ := l.Fact(difc.Tag(8), 0); f.Spent < acked {
				t.Fatalf("in-memory spend %d dropped below acked %d", f.Spent, acked)
			}
			plan.SetRates(site, faultinject.Rates{})

			// Reboot: recovered spend must cover every acked charge.
			l2 := New(WithStore(st))
			f, ok := l2.Fact(difc.Tag(8), 0)
			if !ok {
				t.Fatal("fact lost across reboot")
			}
			if f.Spent < acked {
				t.Fatalf("recovered spend %d under-counts acked %d", f.Spent, acked)
			}
		})
	}
}

// TestRecoverMergesShadowForward: a crash between the shadow write and
// the flip leaves newer spend in the shadow; recovery must take the max,
// not prefer the stale commit.
func TestRecoverMergesShadowForward(t *testing.T) {
	st := newMemStore()
	k := Key{Tag: 6, Peer: 2}
	st.Set(storeKey(k), sealFact(Fact{Spent: 5, Limit: 50, Epoch: 1}))
	st.Set(storeKey(k)+shadowSuffix, sealFact(Fact{Spent: 9, Limit: 50, Epoch: 1}))

	l := New(WithStore(st))
	f, ok := l.Fact(difc.Tag(6), 2)
	if !ok || f.Spent != 9 {
		t.Fatalf("recovery rounded down: %+v ok=%v", f, ok)
	}
	if _, hasShadow := st.Get(storeKey(k) + shadowSuffix); hasShadow {
		t.Fatal("recovery left the shadow behind")
	}
}

// TestRecoverQuarantine: when nothing decodes the fact quarantines to
// zero budget — fail closed, not fail open.
func TestRecoverQuarantine(t *testing.T) {
	st := newMemStore()
	k := Key{Tag: 11, Peer: 0}
	good := sealFact(Fact{Spent: 1, Limit: 100, Epoch: 1})
	st.Set(storeKey(k), good[:len(good)/2])
	st.Set(storeKey(k)+shadowSuffix, good[:3])

	l := New(WithStore(st))
	f, ok := l.Fact(difc.Tag(11), 0)
	if !ok {
		t.Fatal("quarantined fact absent")
	}
	if f.Limit != 0 || f.Spent != math.MaxUint64 || !f.Exhausted() {
		t.Fatalf("quarantine gave %+v, want zero budget", f)
	}
	if err := l.Charge("send", difc.Tag(11), 0, 1); err == nil {
		t.Fatal("charge against quarantined fact allowed")
	}
	// A deliberate new limit under a bumped epoch clears quarantine.
	l.SetLimit(difc.Tag(11), 0, 10)
	if err := l.Charge("send", difc.Tag(11), 0, 1); err != nil {
		t.Fatalf("charge after fresh SetLimit denied: %v", err)
	}
}

func TestCostBytes(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 1}, {-5, 1}, {1, 1}, {1023, 1}, {1024, 1}, {1025, 2}, {4096, 4}, {4097, 5},
	}
	for _, c := range cases {
		if got := CostBytes(c.n); got != c.want {
			t.Errorf("CostBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestChargeLabel(t *testing.T) {
	l := New()
	l.SetLimit(difc.Tag(1), 0, 2)
	lab := difc.NewLabel(difc.Tag(1), difc.Tag(2))
	if err := l.ChargeLabel("send", lab, 0, 1); err != nil {
		t.Fatalf("first label charge denied: %v", err)
	}
	if err := l.ChargeLabel("send", lab, 0, 1); err != nil {
		t.Fatalf("second label charge denied: %v", err)
	}
	if err := l.ChargeLabel("send", lab, 0, 1); err == nil {
		t.Fatal("label charge past tag 1 budget allowed")
	}
}
